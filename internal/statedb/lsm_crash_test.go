package statedb

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fabriccrdt/internal/framing"
	"fabriccrdt/internal/rwset"
)

// The LSM crash matrix. Two regimes, mirroring the disk backend's
// discipline (torn log tails recover, corrupt snapshots refuse):
//
//   - States a crash CAN produce — torn/corrupt WAL tails, orphan runs
//     (flushed but never referenced by a manifest, in any state of
//     damage), leftover .tmp files, a stale WAL after a manifest swap —
//     must reopen to a consistent pre-crash prefix.
//   - States a crash CANNOT produce — damage to a manifest-listed run or
//     to the manifest itself (both fsynced before their rename installed
//     them) — must refuse to open rather than serve silently wrong data.

// buildFlushedLSM creates an LSM store with several flushed runs and a
// reference DB holding the same state, and returns the directory.
func buildFlushedLSM(t *testing.T, blocks int) (string, *DB) {
	t.Helper()
	dir := t.TempDir()
	trivial := New()
	db, err := NewLSMWithOptions(dir, tinyLSMOptions())
	if err != nil {
		t.Fatal(err)
	}
	applyRandomBatches(t, 53, blocks, trivial, db)
	waitCompactions(db)
	if stats, _ := db.Stats(); stats.Flushes == 0 {
		t.Fatal("fixture never flushed")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, trivial
}

// listedRunPaths returns the manifest-referenced run files.
func listedRunPaths(t *testing.T, dir string) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, manifestFileName))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := framing.Verify(raw)
	if err != nil {
		t.Fatal(err)
	}
	_, _, seqs, err := decodeManifest(payload)
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, len(seqs))
	for i, s := range seqs {
		paths[i] = filepath.Join(dir, runFileName(s))
	}
	return paths
}

// TestLSMCrashWALTail: a crash mid-Apply leaves a torn or corrupt WAL
// tail; reopen must keep every earlier batch and accept new ones. A large
// memtable keeps all batches in the WAL, so the damage lands on real data,
// not an empty file.
func TestLSMCrashWALTail(t *testing.T) {
	requireLogTailRecovery(t, walFileName, func(dir string) (*DB, error) {
		return NewLSMWithOptions(dir, LSMOptions{MemtableBytes: 1 << 20})
	})
}

// TestLSMCrashOrphanRun: a crash between a run's rename and the manifest
// install leaves an orphan run whose batches are still in the WAL. The
// orphan — whole, torn, or reduced to a temp file — must be swept and
// the state recovered from the WAL, regardless of damage.
func TestLSMCrashOrphanRun(t *testing.T) {
	mutations := map[string]func(t *testing.T, dir, orphan string){
		"complete": func(t *testing.T, dir, orphan string) {},
		"truncated-tail": func(t *testing.T, dir, orphan string) {
			raw, err := os.ReadFile(orphan)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(orphan, raw[:len(raw)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"missing-footer": func(t *testing.T, dir, orphan string) {
			raw, err := os.ReadFile(orphan)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(orphan, raw[:len(raw)-runFooterLen], 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"still-a-tempfile": func(t *testing.T, dir, orphan string) {
			if err := os.Rename(orphan, orphan+".tmp"); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			good := New()
			// No flush during the run: everything stays in the WAL.
			db, err := NewLSMWithOptions(dir, LSMOptions{MemtableBytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			applyRandomBatches(t, 59, 10, good, db)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			// Fabricate the orphan: a run holding garbage-but-valid data at
			// a sequence no manifest references (there is no manifest at
			// all), as if the crash hit right after the rename.
			orphan := filepath.Join(dir, runFileName(7))
			if err := writeRun(orphan, []runEntry{{ikey: dataKey("zzz-orphan"), value: []byte("lost")}}, 256); err != nil {
				t.Fatal(err)
			}
			mutate(t, dir, orphan)

			reopened, err := NewLSMWithOptions(dir, tinyLSMOptions())
			if err != nil {
				t.Fatalf("reopen with %s orphan: %v", name, err)
			}
			defer reopened.Close()
			requireSameState(t, good, reopened)
			if _, ok := reopened.Get("zzz-orphan"); ok {
				t.Fatal("orphan run's contents leaked into the state")
			}
			// The orphan file itself is gone.
			leftovers, err := filepath.Glob(filepath.Join(dir, "run-*"))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range leftovers {
				if strings.Contains(f, runFileName(7)) {
					t.Fatalf("orphan %s survived reopen", f)
				}
			}
		})
	}
}

// TestLSMCrashStaleWAL: a crash between the manifest install and the WAL
// truncate leaves every flushed batch duplicated in the WAL. Replay must
// be idempotent — same state, same key count — and keep accepting writes.
func TestLSMCrashStaleWAL(t *testing.T) {
	dir := t.TempDir()
	good := New()
	// Phase 1: batches accumulate in the WAL (no flush).
	db, err := NewLSMWithOptions(dir, LSMOptions{MemtableBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	applyRandomBatches(t, 61, 10, good, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	staleWAL, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(staleWAL) == 0 {
		t.Fatal("fixture WAL is empty")
	}
	// Phase 2: reopen with a tiny memtable and apply one more batch —
	// the replayed memtable tips over and everything (blocks 1..11) is
	// flushed into a run, truncating the WAL.
	db2, err := NewLSMWithOptions(dir, tinyLSMOptions())
	if err != nil {
		t.Fatal(err)
	}
	trigger := map[string]Update{"flush-trigger": {Value: bytes.Repeat([]byte{0x42}, 64), Version: rwset.Version{BlockNum: 11}}}
	h11 := rwset.Version{BlockNum: 11}
	batch := NewUpdateBatch()
	batch.Put("flush-trigger", trigger["flush-trigger"].Value, trigger["flush-trigger"].Version)
	db2.Apply(batch, h11)
	good.Apply(batch, h11)
	waitCompactions(db2)
	if stats, _ := db2.Stats(); stats.Flushes == 0 {
		t.Fatal("phase 2 never flushed")
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: the flush installed the manifest but the WAL
	// truncate never happened, so the WAL still holds every flushed
	// batch — blocks 1..10 from phase 1 plus the trigger batch.
	staleWAL, err = framing.Append(staleWAL, encodeBatch(trigger, nil, h11)[framing.HeaderLen:], maxRecordBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walFileName), staleWAL, 0o644); err != nil {
		t.Fatal(err)
	}
	reopened, err := NewLSMWithOptions(dir, tinyLSMOptions())
	if err != nil {
		t.Fatalf("reopen with stale WAL: %v", err)
	}
	defer reopened.Close()
	// Idempotent replay: same state, same height, and no key-count drift
	// from the re-applied duplicates.
	requireSameState(t, good, reopened)
	if got, want := reopened.KeyCount(), len(reopened.GetRange("", "")); got != want {
		t.Fatalf("KeyCount %d != live keys %d after idempotent replay", got, want)
	}
	applyRandomBatches(t, 71, 3, reopened)
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLSMCrashListedRunDamage: damage to a manifest-listed run cannot
// come from a crash (runs are fsynced before the manifest names them), so
// every such cell refuses to open with a descriptive error instead of
// serving a silently wrong state.
func TestLSMCrashListedRunDamage(t *testing.T) {
	cells := map[string]func(t *testing.T, run string){
		"missing-run": func(t *testing.T, run string) {
			if err := os.Remove(run); err != nil {
				t.Fatal(err)
			}
		},
		"truncated-tail": func(t *testing.T, run string) {
			raw, _ := os.ReadFile(run)
			if err := os.WriteFile(run, raw[:len(raw)-1], 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"corrupt-footer": func(t *testing.T, run string) {
			raw, _ := os.ReadFile(run)
			raw[len(raw)-1] ^= 0xff
			if err := os.WriteFile(run, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"stale-footer-regions": func(t *testing.T, run string) {
			// Shift the whole file by appending bytes after the footer: the
			// regions no longer tile the file.
			raw, _ := os.ReadFile(run)
			if err := os.WriteFile(run, append(raw, 0xAA, 0xBB), 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"corrupt-filter-or-index": func(t *testing.T, run string) {
			// Flip a bit just before the footer — inside the index frame
			// (or, for a tiny run, the filter frame); the frame CRC must
			// catch it either way.
			raw, _ := os.ReadFile(run)
			raw[len(raw)-runFooterLen-1] ^= 0xff
			if err := os.WriteFile(run, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"empty-run": func(t *testing.T, run string) {
			if err := os.WriteFile(run, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, damage := range cells {
		t.Run(name, func(t *testing.T) {
			dir, _ := buildFlushedLSM(t, 40)
			runs := listedRunPaths(t, dir)
			if len(runs) == 0 {
				t.Fatal("fixture has no listed runs")
			}
			damage(t, runs[len(runs)-1])
			if _, err := NewLSMWithOptions(dir, tinyLSMOptions()); err == nil {
				t.Fatalf("%s: open served a store with a damaged listed run", name)
			}
		})
	}
}

// TestLSMCrashManifestDamage: like listed runs, the manifest is installed
// by fsync + rename, so a torn or corrupt manifest means external damage:
// refuse. A leftover MANIFEST.tmp from a crash mid-install is debris and
// must be swept while the previous manifest keeps working.
func TestLSMCrashManifestDamage(t *testing.T) {
	t.Run("corrupt-manifest-refuses", func(t *testing.T) {
		dir, _ := buildFlushedLSM(t, 40)
		path := filepath.Join(dir, manifestFileName)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)-1] ^= 0xff
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := NewLSMWithOptions(dir, tinyLSMOptions()); err == nil {
			t.Fatal("open accepted a corrupt manifest")
		}
	})
	t.Run("manifest-tmp-swept", func(t *testing.T) {
		dir, good := buildFlushedLSM(t, 40)
		tmp := filepath.Join(dir, manifestFileName+".tmp")
		if err := os.WriteFile(tmp, []byte("torn manifest write"), 0o644); err != nil {
			t.Fatal(err)
		}
		reopened, err := NewLSMWithOptions(dir, tinyLSMOptions())
		if err != nil {
			t.Fatalf("reopen with manifest temp debris: %v", err)
		}
		defer reopened.Close()
		requireSameState(t, good, reopened)
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Fatal("manifest temp debris survived reopen")
		}
	})
}
