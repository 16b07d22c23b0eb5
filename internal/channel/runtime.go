// Package channel implements the multi-channel runtime: Fabric's unit of
// sharding, where each channel is an independent ledger with its own
// ordering service, block numbering, world state and commit pipeline
// (Androulaki et al., "Hyperledger Fabric: A Distributed Operating System
// for Permissioned Blockchains"). Runtime is the peer-side per-channel
// committer state — statedb backend, hash chain over the channel's one
// block log, MVCC validator, CRDT merge engine, duplicate screening and
// the commit mutex. A peer owns one Runtime per joined
// channel; runtimes share nothing, so N channels commit fully in parallel.
// ValidateIDs (ids.go) is the one rule for what a channel list may name.
// The ordering side of a channel (its orderer.Service and block log) lives
// with the network that runs it, not here.
//
// Runtimes on a durable backend (disk, lsm) persist under
// DataDir/<channel-ID> — the state store directly in it, the block store
// always beside it under its blocks/ subdirectory — so one DataDir knob
// captures a whole peer and every channel resumes independently at its own
// height after a restart (DESIGN.md §6, §8; docs/PERSISTENCE.md has the
// full layout and recovery matrix).
package channel

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"

	"fabriccrdt/internal/blockstore"
	"fabriccrdt/internal/core"
	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/mvcc"
	"fabriccrdt/internal/rwset"
	"fabriccrdt/internal/statedb"
)

// DefaultChannel is the channel ID used when a configuration names none —
// the paper's single evaluation channel.
const DefaultChannel = "channel1"

// MetaCheckpoint is the statedb metadata key holding the last committed
// block's chain checkpoint. It lives in the metadata space (like persisted
// CRDT documents under "crdt/") and is written atomically with the block's
// own state writes, so a durable backend always records a height and a
// checkpoint from the same block.
const MetaCheckpoint = "sys/checkpoint"

// MetaTxSeen is the statedb metadata key marking a transaction ID as seen
// on this channel, making duplicate screening survive restarts (real
// Fabric consults its persisted block index for this). The marker is
// per-channel state: the same ID on two channels is two transactions.
func MetaTxSeen(txID string) string { return "sys/tx/" + txID }

// chainCheckpoint is the persisted (number, header hash) of the last
// committed block — what a restarted channel's chain and the rebuilt
// ordering service chain onto.
type chainCheckpoint struct {
	Number uint64 `json:"number"`
	Hash   []byte `json:"hash"`
}

// Runtime is one channel's complete commit-side state on one peer. All of
// it is channel-private: block numbering, duplicate screening, MVCC
// version space, merged CRDT documents and crash-restart resume are
// independent per channel, which is what lets channels commit in parallel
// with zero coordination.
//
// Commits on a Runtime are serialized by its commit mutex (Lock/Unlock) —
// mirroring Fabric's one commit pipeline per channel — while reads
// (endorsement simulation) stay concurrent. WasCommitted must be called
// with the commit mutex held.
type Runtime struct {
	id string
	db *statedb.DB
	// chain verifies and writes every committed block to the channel's
	// block log, in finalize just before the state apply.
	chain *ledger.Chain
	// blocks is that log when it is durable (nil on the in-memory
	// backends, whose chain keeps the bodies in a ledger.MemStore).
	blocks    *blockstore.Store
	validator *mvcc.Validator
	engine    *core.Engine

	// cc is the channel-local chaincode registry (chaincode.go):
	// installation is per channel, so cross-channel invokes are rejected.
	cc ccRegistry

	mu sync.Mutex
}

// NewRuntime opens one channel's world state, block store and chain. It
// fails when the configured state backend is invalid or a store cannot be
// opened (the durable backends need a usable DataDir; the channel's stores
// live under DataDir/<id>).
//
// With a durable backend (disk or lsm), a runtime constructed over a
// previously used directory resumes from the persisted state: Height
// reports the last durably committed block, and the chain reopens at the
// block store's tip, so the pre-restart history stays servable. Opening
// cross-checks the block
// log against the state checkpoint and replays any blocks the log durably
// holds beyond it (a crash window the append-first commit order makes
// possible; DESIGN.md §8).
func NewRuntime(id string, committer CommitterConfig) (*Runtime, error) {
	rt := &Runtime{id: id}
	// The state must never become durable beyond the block log (DESIGN.md
	// §8), so a durable state backend syncs the block store before every
	// flush or compaction. The hook only fires after a commit, by which
	// time rt.blocks is open.
	var beforeCompact func() error
	if committer.durableBackend() {
		beforeCompact = func() error { return rt.blocks.Sync() }
	}
	db, err := newStateDB(id, committer, beforeCompact)
	if err != nil {
		return nil, fmt.Errorf("channel %s: %w", id, err)
	}
	rt.db = db
	if committer.durableBackend() {
		chDir := filepath.Join(committer.DataDir, id)
		// Committed state without a block log has lost its recovery root.
		// Refuse before the block store is opened, so the attempt creates
		// nothing on disk.
		if h := rt.Height(); h > 0 && !blockstore.Exists(filepath.Join(chDir, "blocks")) {
			rt.Close()
			return nil, fmt.Errorf("channel %s: the store under %s has committed state (block %d) but no block log: the ledger is a durable peer's recovery root and committed block bodies cannot be re-derived from the state; move the store aside and re-sync this peer from one holding the history", id, chDir, h)
		}
		rt.blocks, err = blockstore.Open(filepath.Join(chDir, "blocks"),
			blockstore.Options{SyncEveryAppend: committer.SyncEveryApply})
		if err != nil {
			rt.Close()
			return nil, fmt.Errorf("channel %s: %w", id, err)
		}
	}
	rt.validator = mvcc.New(db)
	rt.engine = core.NewEngine(db, core.Options{})
	chain, err := rt.recoverChain()
	if err != nil {
		rt.Close()
		return nil, fmt.Errorf("channel %s: %w", id, err)
	}
	rt.chain = chain
	return rt, nil
}

// recoverChain opens the channel's chain over its block log — the durable
// block store, or a fresh in-memory one — and reconciles the log with the
// state checkpoint: a log durably ahead of the checkpoint (the crash
// window the append-block-then-apply-state commit order leaves open) is
// replayed into the state; a log behind it means committed bodies are
// missing and is refused. The recovery root is the ledger — the world
// state is a rebuildable cache of it (DESIGN.md §8, docs/PERSISTENCE.md).
func (rt *Runtime) recoverChain() (*ledger.Chain, error) {
	// A durable state that already committed blocks carries a chain
	// checkpoint (last block number + header hash), which must name a
	// block of the log. A store with height but no matching checkpoint is
	// damaged — refuse it rather than let a fast-forward silently swallow
	// new blocks numbered at or below the stale height.
	h := rt.db.Height().BlockNum
	var cpHash []byte
	if h > 0 {
		num, hash, ok := LoadCheckpoint(rt.db)
		if !ok || num != h {
			return nil, fmt.Errorf("durable state at height %d has no matching chain checkpoint (found %d): store is damaged or from an incompatible version", h, num)
		}
		cpHash = hash
	}
	var store ledger.BlockStore = ledger.NewMemStore(0)
	if rt.blocks != nil {
		store = rt.blocks
	}
	if bh := store.Height(); h > 0 && bh <= h {
		return nil, fmt.Errorf("block log holds blocks [0, %d) but the state checkpoint is at block %d: durably committed block bodies are missing (emptied, truncated or foreign block log); restore the log, or move the store aside and re-sync from a peer holding the history", bh, h)
	}
	chain, err := ledger.OpenChain(rt.id, store)
	if err != nil {
		return nil, err
	}

	// Cross-check the checkpoint block against the log, then replay the
	// gap: blocks the log committed durably before the crash cut off the
	// state apply. Each replayed block must chain onto its predecessor —
	// a log that diverges from the recorded checkpoint is foreign.
	cp, err := chain.Get(h)
	if err != nil {
		return nil, err
	}
	prevHash := cp.HeaderHash()
	if h > 0 && !bytes.Equal(prevHash, cpHash) {
		return nil, fmt.Errorf("block %d in the block log does not match the state's chain checkpoint: the block store and state store are from different histories", h)
	}
	for n := h + 1; n < chain.Height(); n++ {
		b, err := chain.Get(n)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(b.Header.PrevHash, prevHash) {
			return nil, fmt.Errorf("block %d in the block log does not chain onto block %d: the block log is corrupt or foreign", n, n-1)
		}
		prevHash = b.HeaderHash()
		if err := rt.ReplayOwnedBlock(b); err != nil {
			return nil, fmt.Errorf("replaying block %d from the block log: %w", n, err)
		}
	}
	return chain, nil
}

// ReplayBlock re-applies one committed block — carrying its commit-time
// validation codes — to the channel's world state: the recovery primitive
// behind Peer.RebuildState and the block-log gap replay above. CRDT
// outcomes (CRDT_MERGED and INVALID_CRDT) are re-derived by re-running the
// merge engine, which reconstructs the rewritten write sets and persisted
// document states; everything else applies exactly the recorded codes, so
// replaying the chain from block 0 reproduces the live state byte for
// byte (DESIGN.md §5 determinism, now across restarts too).
//
// The caller must hold the commit mutex, or have exclusive use of the
// runtime as during construction.
func (rt *Runtime) ReplayBlock(stored *ledger.Block) error {
	if stored.Header.Number == 0 {
		return nil // the genesis block carries no state
	}
	// Replay on a working copy: the merge engine rewrites write sets, and
	// the caller's block must stay pristine.
	raw, err := stored.Marshal()
	if err != nil {
		return err
	}
	view, err := ledger.UnmarshalBlock(raw)
	if err != nil {
		return err
	}
	return rt.replayBlock(stored, view)
}

// ReplayOwnedBlock is ReplayBlock for a block the caller owns outright —
// a fresh private decode from the block store that nothing else
// references. The merge rewrites the block's write sets in place instead
// of paying a serialization round-trip for a defensive copy, which is
// what keeps full-chain replays at one JSON decode per block.
func (rt *Runtime) ReplayOwnedBlock(stored *ledger.Block) error {
	if stored.Header.Number == 0 {
		return nil
	}
	return rt.replayBlock(stored, stored)
}

// replayBlock applies one committed block's recorded outcomes, merging
// CRDT transactions on view (which may be stored itself for owned
// blocks).
func (rt *Runtime) replayBlock(stored, view *ledger.Block) error {
	codes := make([]ledger.ValidationCode, len(view.Transactions))
	copy(codes, stored.Metadata.ValidationCodes)
	// Re-derive the CRDT outcomes so the engine re-merges them — including
	// INVALID_CRDT transactions, whose intact deltas still extended their
	// keys' documents at live commit (a failed transaction never rolls
	// back a key group; DESIGN.md §5) and must do so again on replay.
	for i := range codes {
		if codes[i] == ledger.CodeCRDTMerged || codes[i] == ledger.CodeInvalidCRDT {
			codes[i] = ledger.CodeNotValidated
		}
	}
	// With no re-derived codes (a stock-Fabric history) every transaction
	// is already decided and the merge is a no-op.
	mergeRes, err := rt.engine.MergeBlock(view, codes)
	if err != nil {
		return err
	}
	batch, err := rt.StageCommit(view, stored, mergeRes, stored.Metadata.ValidationCodes)
	if err != nil {
		return err
	}
	rt.db.Apply(batch, rwset.Version{BlockNum: view.Header.Number})
	return nil
}

// StageCommit assembles one block's atomic commit batch: the validated
// write sets, the merged CRDT document states, the durable
// duplicate-screening markers and the chain checkpoint. It is THE
// definition of what a commit durably writes — the live finalize stage
// and the replay path both build their batch here, so the two can never
// drift apart (the byte-identical-replay guarantee depends on that).
// codes are the authoritative validation codes deciding which write sets
// commit; stored is the pristine block whose header the checkpoint
// records.
func (rt *Runtime) StageCommit(view, stored *ledger.Block, mergeRes core.Result, codes []ledger.ValidationCode) (*statedb.UpdateBatch, error) {
	batch := mvcc.BuildCommitBatch(view.Header.Number, view.Transactions, codes)
	core.StageDocStates(batch, mergeRes)
	StageTxSeen(batch, view.Transactions)
	if err := StageCheckpoint(batch, stored); err != nil {
		return nil, err
	}
	return batch, nil
}

// ID returns the channel ID.
func (rt *Runtime) ID() string { return rt.id }

// DB returns the channel's world state.
func (rt *Runtime) DB() *statedb.DB { return rt.db }

// Chain returns the channel's blockchain: the hash-chain tip over its one
// block log.
func (rt *Runtime) Chain() *ledger.Chain { return rt.chain }

// Blocks returns the channel's durable block store, or nil on an in-memory
// backend. When non-nil it is the store behind Chain().
func (rt *Runtime) Blocks() *blockstore.Store { return rt.blocks }

// Validator returns the channel's MVCC validator.
func (rt *Runtime) Validator() *mvcc.Validator { return rt.validator }

// Engine returns the channel's CRDT merge engine.
func (rt *Runtime) Engine() *core.Engine { return rt.engine }

// Height returns the number of the last block whose writes reached this
// channel's world state — with the disk backend, the last durably
// committed block, which survives restarts.
func (rt *Runtime) Height() uint64 { return rt.db.Height().BlockNum }

// Close releases the channel's block store and state backend (a no-op for
// in-memory backends). With the disk backend it flushes the logs and
// surfaces the first deferred write error; the runtime must not commit
// afterwards. The block store closes (and syncs) first: a power loss
// mid-Close must never leave the state durable beyond the block log.
func (rt *Runtime) Close() error {
	var err error
	if rt.blocks != nil {
		err = rt.blocks.Close()
	}
	if rt.db != nil {
		if derr := rt.db.Close(); err == nil {
			err = derr
		}
	}
	return err
}

// Lock acquires the channel's commit mutex: commits on one channel are
// serialized, commits on different channels never contend.
func (rt *Runtime) Lock() { rt.mu.Lock() }

// Unlock releases the channel's commit mutex.
func (rt *Runtime) Unlock() { rt.mu.Unlock() }

// WasCommitted reports whether the transaction ID was already committed on
// this channel: its durable seen-transaction marker, which every commit
// stages with the block's writes, is in the state. Call with the commit
// mutex held.
func (rt *Runtime) WasCommitted(txID string) bool {
	return rt.db.GetMeta(MetaTxSeen(txID)) != nil
}

// StageTxSeen adds every transaction ID of the block to its commit batch,
// durably extending the channel's duplicate-screening set in the same
// atomic apply as the block's writes.
func StageTxSeen(batch *statedb.UpdateBatch, txs []*ledger.Transaction) {
	for _, tx := range txs {
		batch.PutMeta(MetaTxSeen(tx.ID), []byte{1})
	}
}

// StageCheckpoint adds the block's chain checkpoint to its commit batch.
func StageCheckpoint(batch *statedb.UpdateBatch, b *ledger.Block) error {
	data, err := json.Marshal(chainCheckpoint{Number: b.Header.Number, Hash: b.HeaderHash()})
	if err != nil {
		return err
	}
	batch.PutMeta(MetaCheckpoint, data)
	return nil
}

// LoadCheckpoint reads the persisted chain checkpoint, if any.
func LoadCheckpoint(db *statedb.DB) (number uint64, hash []byte, ok bool) {
	raw := db.GetMeta(MetaCheckpoint)
	if raw == nil {
		return 0, nil, false
	}
	var cp chainCheckpoint
	if err := json.Unmarshal(raw, &cp); err != nil {
		return 0, nil, false
	}
	return cp.Number, cp.Hash, true
}
