// Package ledger implements a Fabric peer's ledger: transaction envelopes,
// blocks with a SHA-256 hash chain, per-transaction validation flags, and an
// append-only block chain (paper §2.1: "the peer's ledger consists of an
// append-only blockchain and a world state database").
//
// Each (node, channel) keeps one block log, a BlockStore: the durable
// internal/blockstore on a peer with a durable backend, a MemStore
// otherwise. A Chain holds no block bodies of its own; it verifies every
// append against the tip and writes through to the store, so a restarted
// peer reopens its chain at the store's tip and still serves (and can
// replay) its history from block 0.
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

// BlockStore is one (node, channel) block log: the only copy of the
// channel's block bodies on that node. Appends are strictly sequential —
// a block must carry Height() — and reads may run concurrently with
// appends. blockstore.Store is the durable implementation; MemStore is
// the in-memory one.
type BlockStore interface {
	// Append stores the next block in sequence.
	Append(*Block) error
	// Get returns block n, or an error wrapping ErrBlockNotFound when the
	// store does not hold it.
	Get(n uint64) (*Block, error)
	// Height returns the number the next appended block must carry.
	Height() uint64
}

// MemStore is an in-memory BlockStore: it keeps every appended block and
// checks only the numbering. It is the block log of the in-memory state
// backends and of an ordering node without a data directory.
type MemStore struct {
	mu     sync.RWMutex
	base   uint64
	blocks []*Block
}

// NewMemStore returns an empty store whose first block will be numbered
// base.
func NewMemStore(base uint64) *MemStore { return &MemStore{base: base} }

// Append stores b, which must carry the next number.
func (s *MemStore) Append(b *Block) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if next := s.base + uint64(len(s.blocks)); b.Header.Number != next {
		return fmt.Errorf("%w: got %d, want %d", ErrBadNumber, b.Header.Number, next)
	}
	s.blocks = append(s.blocks, b)
	return nil
}

// Get returns block n; the block pointer is shared with every reader.
func (s *MemStore) Get(n uint64) (*Block, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if n < s.base || n-s.base >= uint64(len(s.blocks)) {
		return nil, fmt.Errorf("%w: %d (stored range [%d, %d))", ErrBlockNotFound, n, s.base, s.base+uint64(len(s.blocks)))
	}
	return s.blocks[n-s.base], nil
}

// Height returns the number the next appended block must carry.
func (s *MemStore) Height() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.base + uint64(len(s.blocks))
}

// Genesis returns the channel's genesis block (block 0). It is
// deterministic: every node of the channel constructs the same one, so it
// is never delivered.
func Genesis(channelID string) *Block {
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
	return genesis
}

// Chain is hash-chain verification over one block store: it remembers the
// tip (the number and header hash the next block must chain onto) and
// writes every verified block to the store, which holds the bodies. It is
// safe for concurrent use.
type Chain struct {
	store BlockStore

	mu sync.Mutex
	// nextNumber/nextPrevHash are what the next appended block must carry.
	nextNumber   uint64
	nextPrevHash []byte
	// verifiedNext is the block pointer that passed the most recent
	// CheckNext, letting a subsequent Append of the same (unmodified)
	// block skip recomputing the data hash — the expensive half of the
	// verification. Cleared whenever the chain advances.
	verifiedNext *Block
}

// NewChain returns a chain over a fresh in-memory store holding only the
// channel's genesis block.
func NewChain(channelID string) *Chain {
	c, err := OpenChain(channelID, NewMemStore(0))
	if err != nil {
		panic("ledger: opening a chain over an empty memory store: " + err.Error())
	}
	return c
}

// OpenChain returns the channel's chain over store, resuming at the
// store's tip. An empty store gets the genesis block; a non-empty one must
// hold this channel's genesis at 0 — a cheap guard against a block log
// copied in from another channel or network. Blocks already in the store
// are not re-verified here (Verify walks them).
func OpenChain(channelID string, store BlockStore) (*Chain, error) {
	genesis := Genesis(channelID)
	if store.Height() == 0 {
		if err := store.Append(genesis); err != nil {
			return nil, err
		}
	}
	stored, err := store.Get(0)
	if err != nil {
		return nil, err
	}
	if !hashEqual(stored.HeaderHash(), genesis.HeaderHash()) {
		return nil, fmt.Errorf("ledger: the block log's genesis does not match channel %s: the log belongs to a different channel or network", channelID)
	}
	height := store.Height()
	tip, err := store.Get(height - 1)
	if err != nil {
		return nil, err
	}
	return &Chain{store: store, nextNumber: height, nextPrevHash: tip.HeaderHash()}, nil
}

// Height returns the number of blocks in the chain, genesis included —
// i.e. the next expected block number.
func (c *Chain) Height() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nextNumber
}

// LastRef returns the (number, header hash) pair the next appended block
// must chain onto.
func (c *Chain) LastRef() (number uint64, headerHash []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nextNumber - 1, c.nextPrevHash
}

// Get returns block number n from the store. It takes no chain lock: the
// store synchronizes its own reads, and a history read must not stall
// appenders.
func (c *Chain) Get(n uint64) (*Block, error) { return c.store.Get(n) }

// Append verifies the hash chain and writes the block to the store.
func (c *Chain) Append(b *Block) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkNextLocked(b); err != nil {
		return err
	}
	if err := c.store.Append(b); err != nil {
		return err
	}
	c.nextNumber++
	c.nextPrevHash = b.HeaderHash()
	c.verifiedNext = nil
	return nil
}

// CheckNext verifies that b is the block this chain expects next — the
// right number, prev-hash linkage and data hash — without appending it.
// Committers run it before applying the block's writes: a chain-invalid
// block must be rejected while the state is still untouched.
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
	return checkDataHash(b)
}

// Verify re-checks the whole stored hash chain, block 0 to the tip — each
// block's number, prev-hash link and data hash — returning the first
// inconsistency.
func (c *Chain) Verify() error {
	height := c.Height()
	var prevHash []byte
	for n := uint64(0); n < height; n++ {
		b, err := c.store.Get(n)
		if err != nil {
			return err
		}
		if b.Header.Number != n {
			return fmt.Errorf("%w: stored block %d is numbered %d", ErrBadNumber, n, b.Header.Number)
		}
		if !hashEqual(b.Header.PrevHash, prevHash) {
			return fmt.Errorf("%w: block %d", ErrBadPrevHash, n)
		}
		if err := checkDataHash(b); err != nil {
			return err
		}
		prevHash = b.HeaderHash()
	}
	return nil
}

func checkDataHash(b *Block) error {
	dataHash, err := ComputeDataHash(b.Transactions)
	if err != nil {
		return err
	}
	if !hashEqual(b.Header.DataHash, dataHash) {
		return fmt.Errorf("%w: block %d", ErrBadDataHash, b.Header.Number)
	}
	return nil
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
