package channel

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/rwset"
	"fabriccrdt/internal/statedb"
)

func TestValidateIDs(t *testing.T) {
	for name, ids := range map[string][]string{
		"empty-list":     {},
		"empty-name":     {"ch1", ""},
		"duplicate":      {"ch1", "ch2", "ch1"},
		"path-separator": {"ch/1"},
		"parent-dir":     {".."},
		"dot-prefix":     {".ch1"},
		"space":          {"ch 1"},
	} {
		if err := ValidateIDs(ids); err == nil {
			t.Errorf("%s: ValidateIDs(%q) accepted", name, ids)
		}
	}
	if err := ValidateIDs([]string{"channel1", "Ch-2", "ch_3.shard"}); err != nil {
		t.Fatalf("valid IDs rejected: %v", err)
	}
}

func TestNewRuntimeRejectsBadBackendConfig(t *testing.T) {
	for name, committer := range map[string]CommitterConfig{
		"unknown-backend":  {Backend: "couchdb"},
		"disk-no-datadir":  {Backend: BackendDisk},
		"lsm-no-datadir":   {Backend: BackendLSM},
		"misspelled-entry": {Backend: "Memory"},
		"misspelled-lsm":   {Backend: "LSM"},
	} {
		if _, err := NewRuntime("ch1", committer); err == nil {
			t.Errorf("%s: NewRuntime accepted %+v", name, committer)
		}
	}
	for _, committer := range []CommitterConfig{
		{},
		{Backend: BackendMemory},
		{Backend: BackendSharded},
		{Backend: BackendDisk, DataDir: t.TempDir()},
		{Backend: BackendLSM, DataDir: t.TempDir()},
		{Backend: BackendLSM, DataDir: t.TempDir(), StateCacheBytes: 1 << 20},
	} {
		rt, err := NewRuntime("ch1", committer)
		if err != nil {
			t.Errorf("NewRuntime(%+v): %v", committer, err)
			continue
		}
		// Block persistence follows the backend: a durable peer always has
		// its ledger on disk, an in-memory one has nowhere to put it.
		if got, want := rt.Blocks() != nil, committer.durableBackend(); got != want {
			t.Errorf("NewRuntime(%+v): block store open = %v, want %v", committer, got, want)
		}
		rt.Close()
	}
}

// TestDiskRuntimePerChannelLayout pins the on-disk contract: each channel
// persists under its own DataDir/<channel-ID> subdirectory — the state
// store directly inside, the block store under its blocks/ subdirectory —
// so channels on one peer never share a log.
func TestDiskRuntimePerChannelLayout(t *testing.T) {
	dir := t.TempDir()
	committer := CommitterConfig{Backend: BackendDisk, DataDir: dir}
	for _, id := range []string{"ch1", "ch2"} {
		rt, err := NewRuntime(id, committer)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, id)); err != nil {
			t.Fatalf("channel %s has no %s subdirectory: %v", id, filepath.Join(dir, id), err)
		}
		if _, err := os.Stat(filepath.Join(dir, id, "blocks", "blocks.log")); err != nil {
			t.Fatalf("channel %s has no block log: %v", id, err)
		}
	}
}

// TestNewRuntimeRejectsLegacyStore: a data directory in the
// pre-multi-channel layout (state files directly under DataDir) must be
// refused with a migration hint, not silently abandoned by opening a
// fresh per-channel subdirectory beside it.
func TestNewRuntimeRejectsLegacyStore(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "state.log"), []byte{}, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := NewRuntime("ch1", CommitterConfig{Backend: BackendDisk, DataDir: dir})
	if err == nil {
		t.Fatal("NewRuntime opened beside a legacy store")
	}
	if !strings.Contains(err.Error(), "pre-multi-channel") {
		t.Fatalf("unhelpful legacy-store error: %v", err)
	}
}

// TestNewRuntimeRejectsDamagedStore: a durable store with height but no
// chain checkpoint (damage, or a store from an incompatible version) must
// refuse to open — a genesis chain over a non-zero height would make
// fast-forward silently swallow every new block up to that height.
func TestNewRuntimeRejectsDamagedStore(t *testing.T) {
	dir := t.TempDir()
	committer := CommitterConfig{Backend: BackendDisk, DataDir: dir}
	// A fresh runtime leaves the channel's block log (genesis only) in
	// place; the state is then advanced behind its back, checkpoint-less.
	rt, err := NewRuntime("ch1", committer)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	db, err := statedb.NewDisk(filepath.Join(dir, "ch1"))
	if err != nil {
		t.Fatal(err)
	}
	batch := statedb.NewUpdateBatch()
	batch.Put("k", []byte("v"), rwset.Version{BlockNum: 3})
	db.Apply(batch, rwset.Version{BlockNum: 3})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = NewRuntime("ch1", committer)
	if err == nil {
		t.Fatal("NewRuntime accepted a durable store with height but no checkpoint")
	}
	if !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("unhelpful damage error: %v", err)
	}
}

// TestRuntimeDedupIsChannelLocal: the duplicate-screening markers belong
// to one runtime's state; the same ID on another channel is a different
// transaction.
func TestRuntimeDedupIsChannelLocal(t *testing.T) {
	dir := t.TempDir()
	committer := CommitterConfig{Backend: BackendDisk, DataDir: dir}
	rt1, err := NewRuntime("ch1", committer)
	if err != nil {
		t.Fatal(err)
	}
	defer rt1.Close()
	rt2, err := NewRuntime("ch2", committer)
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()

	// A commit stages the seen-transaction marker into its channel's
	// state only.
	batch := statedb.NewUpdateBatch()
	StageTxSeen(batch, []*ledger.Transaction{{ID: "tx-shared"}})
	rt1.DB().Apply(batch, rwset.Version{BlockNum: 1})
	rt1.Lock()
	d1 := rt1.WasCommitted("tx-shared")
	rt1.Unlock()
	rt2.Lock()
	d2 := rt2.WasCommitted("tx-shared")
	rt2.Unlock()
	if !d1 || d2 {
		t.Fatalf("dedup leaked across channels: ch1=%v ch2=%v", d1, d2)
	}
}
