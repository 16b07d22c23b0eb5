// Package ledger implements a Fabric peer's ledger: transaction envelopes,
// blocks with a SHA-256 hash chain, per-transaction validation flags, and an
// append-only block chain (paper §2.1: "the peer's ledger consists of an
// append-only blockchain and a world state database").
//
// A Chain normally grows from the channel genesis block. A peer restored
// from a durable state checkpoint instead resumes an empty chain after a
// recorded (block number, header hash) pair (NewChainCheckpointed), with
// every later append still hash-verified against it; the chain is backed
// by the peer's durable block store (internal/blockstore) and keeps
// answering Get(n) for the pre-checkpoint history — so a restarted peer
// serves old blocks to syncing peers and can replay its ledger from block
// 0.
package ledger

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"fabriccrdt/internal/rwset"
)

// ValidationCode is the outcome a committer assigns to a transaction.
// Fabric appends both valid and invalid transactions to the chain, marking
// each with its code.
type ValidationCode int

const (
	// CodeNotValidated is the zero state before commit-time validation.
	CodeNotValidated ValidationCode = iota
	// CodeValid marks a successfully committed transaction.
	CodeValid
	// CodeMVCCConflict marks a read-set version mismatch (paper §3).
	CodeMVCCConflict
	// CodeEndorsementFailure marks an endorsement policy violation.
	CodeEndorsementFailure
	// CodeBadSignature marks an invalid endorsement or creator signature.
	CodeBadSignature
	// CodeDuplicate marks a transaction whose ID was already committed.
	CodeDuplicate
	// CodeCRDTMerged marks a CRDT transaction committed through the
	// FabricCRDT merge path instead of MVCC validation.
	CodeCRDTMerged
	// CodeInvalidCRDT marks a CRDT transaction whose flagged value could
	// not be parsed as a JSON object delta.
	CodeInvalidCRDT
	// CodeWrongChannel marks a transaction delivered on a channel other
	// than the one it was endorsed for (its ChannelID). Channels are
	// independent ledgers: an envelope endorsed against one channel's
	// state must never commit on another (Fabric's BAD_CHANNEL_HEADER).
	CodeWrongChannel
)

// String implements fmt.Stringer.
func (c ValidationCode) String() string {
	switch c {
	case CodeNotValidated:
		return "NOT_VALIDATED"
	case CodeValid:
		return "VALID"
	case CodeMVCCConflict:
		return "MVCC_CONFLICT"
	case CodeEndorsementFailure:
		return "ENDORSEMENT_POLICY_FAILURE"
	case CodeBadSignature:
		return "BAD_SIGNATURE"
	case CodeDuplicate:
		return "DUPLICATE_TXID"
	case CodeCRDTMerged:
		return "CRDT_MERGED"
	case CodeInvalidCRDT:
		return "INVALID_CRDT_VALUE"
	case CodeWrongChannel:
		return "WRONG_CHANNEL"
	default:
		return fmt.Sprintf("ValidationCode(%d)", int(c))
	}
}

// Committed reports whether the code means the transaction's writes reached
// the world state.
func (c ValidationCode) Committed() bool {
	return c == CodeValid || c == CodeCRDTMerged
}

// Endorsement is one peer's signature over a proposal response.
type Endorsement struct {
	// Endorser is the serialized cryptoid.Identity of the endorsing peer.
	Endorser []byte `json:"endorser"`
	// Signature signs the transaction's endorsement payload.
	Signature []byte `json:"signature"`
}

// Transaction is the envelope a client submits for ordering after
// collecting endorsements.
type Transaction struct {
	ID        string `json:"id"`
	ChannelID string `json:"channel"`
	Chaincode string `json:"chaincode"`
	// Creator is the serialized identity of the submitting client.
	Creator []byte `json:"creator"`
	// Args is the invocation payload (function + arguments).
	Args [][]byte `json:"args,omitempty"`
	// RWSet is the simulated read/write set agreed by the endorsers.
	RWSet rwset.ReadWriteSet `json:"rwset"`
	// Endorsements carries the endorsing peers' signatures.
	Endorsements []Endorsement `json:"endorsements,omitempty"`
	// SubmitUnixNano is the client submission time used by the metrics
	// pipeline (Caliper measures latency from submission to commit).
	SubmitUnixNano int64 `json:"submitUnixNano,omitempty"`
	// TraceID joins this transaction's spans across processes (obs
	// tracing); minted at client.Prepare when tracing is enabled, empty
	// otherwise. Deliberately outside EndorsementPayload: the trace
	// annotation is not part of what endorsers attest to.
	TraceID string `json:"traceID,omitempty"`
}

// EndorsementPayload returns the byte string endorsers sign: everything the
// committer must be able to pin to the endorsement, i.e. the proposal
// identity and the simulated read/write set.
func (tx *Transaction) EndorsementPayload() ([]byte, error) {
	rw, err := tx.RWSet.Marshal()
	if err != nil {
		return nil, err
	}
	payload := struct {
		ID        string `json:"id"`
		ChannelID string `json:"channel"`
		Chaincode string `json:"chaincode"`
		RWSet     string `json:"rwset"`
	}{tx.ID, tx.ChannelID, tx.Chaincode, string(rw)}
	return json.Marshal(payload)
}

// Marshal serializes the transaction.
func (tx *Transaction) Marshal() ([]byte, error) { return json.Marshal(tx) }

// UnmarshalTransaction parses Marshal output.
func UnmarshalTransaction(data []byte) (*Transaction, error) {
	var tx Transaction
	if err := json.Unmarshal(data, &tx); err != nil {
		return nil, fmt.Errorf("ledger: decoding transaction: %w", err)
	}
	return &tx, nil
}

// Size returns the serialized size in bytes, the quantity the orderer's
// byte-based block cutting limits apply to.
func (tx *Transaction) Size() int {
	data, err := tx.Marshal()
	if err != nil {
		return 0
	}
	return len(data)
}

// BlockHeader chains a block to its predecessor.
type BlockHeader struct {
	Number   uint64 `json:"number"`
	PrevHash []byte `json:"prevHash"`
	DataHash []byte `json:"dataHash"`
}

// BlockMetadata carries commit-time annotations.
type BlockMetadata struct {
	// ValidationCodes holds one code per transaction, filled by the
	// committer.
	ValidationCodes []ValidationCode `json:"validationCodes,omitempty"`
	// CutReason records why the orderer cut the block (size/bytes/timeout).
	CutReason string `json:"cutReason,omitempty"`
	// TraceIDs mirrors the transactions' trace IDs (one entry per
	// transaction, empty strings for untraced ones) so tooling can follow
	// traces without decoding transaction bodies. Only set when at least
	// one transaction in the block is traced.
	TraceIDs []string `json:"traceIDs,omitempty"`
}

// Block is an ordered batch of transactions.
type Block struct {
	Header       BlockHeader    `json:"header"`
	Transactions []*Transaction `json:"transactions"`
	Metadata     BlockMetadata  `json:"metadata"`
}

// ComputeDataHash hashes the block's transactions canonically.
func ComputeDataHash(txs []*Transaction) ([]byte, error) {
	h := sha256.New()
	for _, tx := range txs {
		data, err := tx.Marshal()
		if err != nil {
			return nil, err
		}
		var lenBuf [8]byte
		n := len(data)
		for i := 0; i < 8; i++ {
			lenBuf[i] = byte(n >> (8 * i))
		}
		h.Write(lenBuf[:])
		h.Write(data)
	}
	return h.Sum(nil), nil
}

// HeaderHash returns the hash that the next block's PrevHash must carry.
func (b *Block) HeaderHash() []byte {
	data, _ := json.Marshal(b.Header)
	sum := sha256.Sum256(data)
	return sum[:]
}

// Marshal serializes the block.
func (b *Block) Marshal() ([]byte, error) { return json.Marshal(b) }

// UnmarshalBlock parses Marshal output.
func UnmarshalBlock(data []byte) (*Block, error) {
	var b Block
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("ledger: decoding block: %w", err)
	}
	return &b, nil
}

// Chain errors.
var (
	ErrBadPrevHash   = errors.New("ledger: block prev-hash mismatch")
	ErrBadDataHash   = errors.New("ledger: block data-hash mismatch")
	ErrBadNumber     = errors.New("ledger: block number out of sequence")
	ErrBlockNotFound = errors.New("ledger: block not found")
)

// BlockSource serves committed block bodies by number — the read side of
// a durable block store backing a checkpointed chain. A source must cover
// the contiguous range [0, Height()) and be safe for concurrent use.
type BlockSource interface {
	// Get returns block n, or an error wrapping ErrBlockNotFound when the
	// source does not hold it.
	Get(n uint64) (*Block, error)
	// Height returns the number of stored blocks.
	Height() uint64
}

// Chain is an append-only block chain with hash-chain verification on
// append. It is safe for concurrent use.
//
// A chain normally starts at the genesis block. A chain restored from a
// checkpoint (NewChainCheckpointed) starts empty after a known (number,
// header hash) pair instead: block bodies before the checkpoint are not
// held in memory — the durable world state already reflects them — but
// every later append is still hash-verified against the checkpoint, and
// the chain's BlockSource serves the pre-checkpoint bodies, so Get works
// over the full history.
type Chain struct {
	mu     sync.RWMutex
	blocks []*Block
	// base is the number of blocks[0] (0 for a genesis chain).
	base uint64
	// nextNumber/nextPrevHash are what the next appended block must carry.
	nextNumber   uint64
	nextPrevHash []byte
	// checkpointHash is the header hash of block base-1 when the chain was
	// restored from a checkpoint (base > 0).
	checkpointHash []byte
	// source serves pre-checkpoint block bodies (numbers below base); nil
	// for a genesis chain, which has none.
	source BlockSource
	// verifiedNext is the block pointer that passed the most recent
	// CheckNext, letting a subsequent Append of the same (unmodified)
	// block skip recomputing the data hash — the expensive half of the
	// verification. Cleared whenever the chain advances.
	verifiedNext *Block
}

// NewChain returns a chain containing only the genesis block for the given
// channel.
func NewChain(channelID string) *Chain {
	genesis := &Block{
		Header: BlockHeader{Number: 0, PrevHash: nil},
		Transactions: []*Transaction{{
			ID:        "genesis-" + channelID,
			ChannelID: channelID,
			Chaincode: "_config",
		}},
		Metadata: BlockMetadata{ValidationCodes: []ValidationCode{CodeValid}},
	}
	genesis.Header.DataHash, _ = ComputeDataHash(genesis.Transactions)
	return &Chain{
		blocks:       []*Block{genesis},
		nextNumber:   1,
		nextPrevHash: genesis.HeaderHash(),
	}
}

// NewChainCheckpointed returns a chain resuming after block lastNumber,
// whose header hash the next block's PrevHash must match. It holds no
// pre-checkpoint bodies in memory: src, the peer's durable block store,
// must cover [0, lastNumber], and the chain serves Get for the whole
// history — pre-checkpoint numbers from src, later ones from memory.
func NewChainCheckpointed(lastNumber uint64, lastHash []byte, src BlockSource) *Chain {
	return &Chain{
		base:           lastNumber + 1,
		nextNumber:     lastNumber + 1,
		nextPrevHash:   lastHash,
		checkpointHash: lastHash,
		source:         src,
	}
}

// Height returns the number of blocks committed to the chain, genesis and
// any pre-checkpoint history included — i.e. the next expected block
// number.
func (c *Chain) Height() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nextNumber
}

// Last returns the most recent block, or nil for a checkpointed chain that
// has not appended any block yet.
func (c *Chain) Last() *Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.blocks) == 0 {
		return nil
	}
	return c.blocks[len(c.blocks)-1]
}

// LastRef returns the (number, header hash) pair the next appended block
// must chain onto. Unlike Last it works on an empty checkpointed chain,
// where it returns the checkpoint itself.
func (c *Chain) LastRef() (number uint64, headerHash []byte) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nextNumber - 1, c.nextPrevHash
}

// Get returns block number n. On a checkpointed chain, numbers before the
// checkpoint are served from the backing block source.
func (c *Chain) Get(n uint64) (*Block, error) {
	c.mu.RLock()
	base, next, src := c.base, c.nextNumber, c.source
	var b *Block
	if n >= base && n < next {
		b = c.blocks[n-base]
	}
	c.mu.RUnlock()
	if b != nil {
		return b, nil
	}
	if n < base {
		// Outside the chain lock: the source does its own disk I/O and
		// synchronization, and a history read must not stall appenders
		// (base and source never change after construction).
		return src.Get(n)
	}
	return nil, fmt.Errorf("%w: %d (stored range [%d, %d))", ErrBlockNotFound, n, base, next)
}

// Append verifies the hash chain and appends the block.
func (c *Chain) Append(b *Block) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkNextLocked(b); err != nil {
		return err
	}
	c.blocks = append(c.blocks, b)
	c.nextNumber++
	c.nextPrevHash = b.HeaderHash()
	c.verifiedNext = nil
	return nil
}

// CheckNext verifies that b is the block this chain expects next — the
// right number, prev-hash linkage and data hash — without appending it.
// Committers run it before applying the block's writes: Append re-verifies
// at the end of the commit, but by then the writes (and, on a durable
// backend, the chain checkpoint) would already be applied — a
// chain-invalid block must be rejected while the state is still untouched.
//
// A block that passes is remembered by pointer: appending that same block
// — unmodified, transactions included — skips the data-hash recompute
// (the number and prev-hash linkage are still re-checked, which also
// guards the memo against the chain having advanced in between).
func (c *Chain) CheckNext(b *Block) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkNextLocked(b); err != nil {
		return err
	}
	c.verifiedNext = b
	return nil
}

func (c *Chain) checkNextLocked(b *Block) error {
	if b.Header.Number != c.nextNumber {
		return fmt.Errorf("%w: got %d, want %d", ErrBadNumber, b.Header.Number, c.nextNumber)
	}
	if !hashEqual(b.Header.PrevHash, c.nextPrevHash) {
		return fmt.Errorf("%w: block %d", ErrBadPrevHash, b.Header.Number)
	}
	if b == c.verifiedNext {
		return nil
	}
	dataHash, err := ComputeDataHash(b.Transactions)
	if err != nil {
		return err
	}
	if !hashEqual(b.Header.DataHash, dataHash) {
		return fmt.Errorf("%w: block %d", ErrBadDataHash, b.Header.Number)
	}
	return nil
}

// Verify re-checks the whole locally stored hash chain — including the
// first stored block's number and, on a checkpointed chain, its linkage to
// the recorded checkpoint hash — returning the first inconsistency.
// Pre-checkpoint history is not re-checkable (it is not stored) but every
// stored block was append-time-verified against the checkpoint.
func (c *Chain) Verify() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.blocks) > 0 {
		first := c.blocks[0]
		if first.Header.Number != c.base {
			return fmt.Errorf("%w: first stored block is %d, want %d", ErrBadNumber, first.Header.Number, c.base)
		}
		if c.base > 0 && !hashEqual(first.Header.PrevHash, c.checkpointHash) {
			return fmt.Errorf("%w: block %d does not chain onto the checkpoint", ErrBadPrevHash, first.Header.Number)
		}
		dataHash, err := ComputeDataHash(first.Transactions)
		if err != nil {
			return err
		}
		if !hashEqual(first.Header.DataHash, dataHash) {
			return fmt.Errorf("%w: block %d", ErrBadDataHash, first.Header.Number)
		}
	}
	for i := 1; i < len(c.blocks); i++ {
		b, prev := c.blocks[i], c.blocks[i-1]
		if b.Header.Number != prev.Header.Number+1 {
			return fmt.Errorf("%w: index %d", ErrBadNumber, i)
		}
		if !hashEqual(b.Header.PrevHash, prev.HeaderHash()) {
			return fmt.Errorf("%w: block %d", ErrBadPrevHash, b.Header.Number)
		}
		dataHash, err := ComputeDataHash(b.Transactions)
		if err != nil {
			return err
		}
		if !hashEqual(b.Header.DataHash, dataHash) {
			return fmt.Errorf("%w: block %d", ErrBadDataHash, b.Header.Number)
		}
	}
	return nil
}

// Blocks returns a snapshot of all in-memory blocks in order (genesis
// first, unless the chain was restored from a checkpoint — a backing block
// source's pre-checkpoint history is not included; iterate the source for
// that); the slice is fresh, the block pointers are shared.
func (c *Chain) Blocks() []*Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Block, len(c.blocks))
	copy(out, c.blocks)
	return out
}

func hashEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
