package channel

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"fabriccrdt/internal/statedb"
)

// State backend names for CommitterConfig.Backend.
const (
	// BackendMemory is the trivial single-lock in-memory map.
	BackendMemory = "memory"
	// BackendSharded is the in-memory backend with per-shard locks.
	BackendSharded = "sharded"
	// BackendDisk is the persistent append-only-log backend; requires
	// DataDir. A peer reopening the same DataDir resumes every channel
	// from its last committed block instead of replaying the chain.
	BackendDisk = "disk"
	// BackendLSM is the log-structured persistent backend (memtable +
	// sorted runs + bloom filters + block cache, docs/STATEDB.md);
	// requires DataDir. Unlike BackendDisk it never rebuilds a full
	// in-memory index — open cost and resident memory stay independent of
	// the keyspace, so world state can outgrow RAM.
	BackendLSM = "lsm"
)

// stateShards is BackendSharded's shard count — the count bench/'s
// statedb.sharded.* layer rows measure.
const stateShards = 8

// CommitterConfig selects the world-state backend behind the commit
// pipeline and its durability (DESIGN.md §4, §5). One configuration applies
// to every channel a peer joins; each channel gets its own backend instance
// (and, for the durable backends, its own subdirectory under DataDir,
// holding the state store and the durable block store). How
// parallel the committer runs is not configured here: the peer derives it
// from GOMAXPROCS and its channel count (DESIGN.md §6).
type CommitterConfig struct {
	// Backend names the statedb backend: BackendMemory (also the zero
	// value), BackendSharded, BackendDisk or BackendLSM. Unknown names fail
	// construction.
	Backend string
	// DataDir is the durable backends' data directory (required for
	// BackendDisk and BackendLSM, unused otherwise). Each peer needs its
	// own directory; fabricnet derives per-peer subdirectories
	// automatically. Each channel persists under DataDir/<channel-ID>.
	DataDir string
	// StateCacheBytes bounds the LSM backend's block cache (BackendLSM
	// only; 0 = the statedb default, currently 32 MiB). The cache holds
	// decoded run blocks for point reads and range scans; sizing it below
	// the hot set trades read latency for resident memory
	// (docs/STATEDB.md).
	StateCacheBytes int64
	// SyncEveryApply makes the durable backends fsync their state log
	// (BackendDisk) or write-ahead log (BackendLSM) — and the block store
	// beside it — after every committed block, closing the
	// power-loss durability window at the cost of fsyncs per block
	// (DESIGN.md §4). Durable backends only. This is the configuration
	// where the async commit pipeline pays off even on a single core:
	// block N's fsync wait is hidden behind block N+1's decode +
	// endorsement validation (DESIGN.md §7).
	SyncEveryApply bool
}

// durableBackend reports whether the configured state backend persists to
// DataDir. A durable peer always keeps its block store beside the state
// store (DataDir/<channel-ID>/blocks): the ledger, not the state
// checkpoint, is its recovery root (DESIGN.md §8, docs/PERSISTENCE.md).
func (c CommitterConfig) durableBackend() bool {
	return c.Backend == BackendDisk || c.Backend == BackendLSM
}

// rejectLegacyStore refuses a data directory holding a store in the
// pre-multi-channel layout (state files directly under DataDir, not under
// a per-channel subdirectory). Opening past it would silently start every
// channel fresh — abandoning the committed state AND the durable
// duplicate-screening markers — so, like a damaged checkpoint, it is an
// error rather than a quiet restart. The record format itself is
// unchanged: moving the old store into DataDir/<its-channel-ID>/ migrates
// it.
func rejectLegacyStore(dataDir string) error {
	for _, name := range []string{"state.log", "state.snap"} {
		if _, err := os.Stat(filepath.Join(dataDir, name)); err == nil {
			return fmt.Errorf("found a pre-multi-channel store (%s) directly under %s: this version keeps each channel under %s/<channel-ID>; move the old store into its channel's subdirectory (e.g. %s) or use a fresh directory",
				name, dataDir, dataDir, filepath.Join(dataDir, DefaultChannel))
		}
	}
	return nil
}

// newStateDB builds one channel's world state as named by the committer
// configuration. The disk backend stores each channel under its own
// DataDir/<channel-ID> subdirectory so channels never share a log.
// beforeCompact (may be nil) is handed to the disk backend so it can
// fsync the channel's block store before making a state snapshot durable.
func newStateDB(channelID string, c CommitterConfig, beforeCompact func() error) (*statedb.DB, error) {
	switch c.Backend {
	case "", BackendMemory:
		return statedb.New(), nil
	case BackendSharded:
		return statedb.NewSharded(stateShards), nil
	case BackendDisk:
		if c.DataDir == "" {
			return nil, errors.New("disk state backend requires CommitterConfig.DataDir")
		}
		if err := rejectLegacyStore(c.DataDir); err != nil {
			return nil, err
		}
		return statedb.NewDiskWithOptions(filepath.Join(c.DataDir, channelID),
			statedb.DiskOptions{SyncEveryApply: c.SyncEveryApply, BeforeCompact: beforeCompact})
	case BackendLSM:
		if c.DataDir == "" {
			return nil, errors.New("lsm state backend requires CommitterConfig.DataDir")
		}
		if err := rejectLegacyStore(c.DataDir); err != nil {
			return nil, err
		}
		return statedb.NewLSMWithOptions(filepath.Join(c.DataDir, channelID),
			statedb.LSMOptions{
				CacheBytes:     c.StateCacheBytes,
				SyncEveryApply: c.SyncEveryApply,
				BeforeCompact:  beforeCompact,
			})
	default:
		return nil, fmt.Errorf("unknown state backend %q (want %s, %s, %s or %s)",
			c.Backend, BackendMemory, BackendSharded, BackendDisk, BackendLSM)
	}
}
