package statedb

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fabriccrdt/internal/framing"
	"fabriccrdt/internal/rwset"
)

// Golden bytes: every fixture below was written by the encoders that
// predate internal/framing. Each must still open, and the same input must
// reproduce it byte for byte — the formats can only move deliberately.
const (
	// goldenBatch is state.log, state.snap and wal.log alike after Put(k,v)
	// + PutMeta(m,meta) committed at block 7: one batch record.
	goldenBatch    = "41000000b4e87c0a010700000000000000000000000000000001000000010000006b0007000000000000000200000000000000010000007601000000010000006d040000006d657461"
	goldenManifest = "2d000000ae3f653d010700000000000000020000000000000003000000000000000200000001000000000000000400000000000000"
	goldenRun      = "20000000a8c6cd0d01000000000200000064610100000000000000000000000000000001000000311b000000817cc6000100000001020000006462020000000000000001000000000000002300000095183eb60100000000020000006d7800000000000000000000000000000000040000006d65746114000000673e159a07000000400000000000000049244020994c26933a000000bec0113e03000000020000006461000000000000000028000000020000006462280000000000000023000000020000006d784b000000000000002b000000314d534c01000000030000000000000092000000000000004200000076000000000000001c000000f36442d6"
)

func writeHex(t *testing.T, path, h string) {
	t.Helper()
	raw, err := hex.DecodeString(h)
	if err == nil {
		err = os.WriteFile(path, raw, 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
}

func requireHex(t *testing.T, path, want string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(raw); got != want {
		t.Fatalf("%s = %s, want the golden %s", path, got, want)
	}
}

// TestGoldenBatchLogs: the disk backend's state.log and state.snap and the
// LSM backend's wal.log.
func TestGoldenBatchLogs(t *testing.T) {
	version, height := rwset.Version{BlockNum: 7, TxNum: 2}, rwset.Version{BlockNum: 7}
	compacting := func(dir string) (*DB, error) {
		return NewDiskWithOptions(dir, DiskOptions{CompactAfterBytes: 1})
	}
	for file, open := range map[string]func(string) (*DB, error){
		logFileName: NewDisk, snapFileName: compacting, walFileName: NewLSM,
	} {
		old, fresh := t.TempDir(), t.TempDir()
		writeHex(t, filepath.Join(old, file), goldenBatch)
		db, err := open(old)
		if err != nil {
			t.Fatalf("opening the golden %s: %v", file, err)
		}
		if vv, ok := db.Get("k"); !ok || string(vv.Value) != "v" || vv.Version != version ||
			string(db.GetMeta("m")) != "meta" || db.Height() != height {
			t.Fatalf("golden %s replayed to k=%+v (%v), m=%q, height %v", file, vv, ok, db.GetMeta("m"), db.Height())
		}
		db.Close()

		if db, err = open(fresh); err != nil {
			t.Fatal(err)
		}
		batch := NewUpdateBatch()
		batch.Put("k", []byte("v"), version)
		batch.PutMeta("m", []byte("meta"))
		db.Apply(batch, height)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		requireHex(t, filepath.Join(fresh, file), goldenBatch)
	}
}

// TestGoldenManifestAndRun: the LSM MANIFEST record and a whole sorted-run
// file (three framed blocks, filter, index and the checksummed footer).
func TestGoldenManifestAndRun(t *testing.T) {
	dir := t.TempDir()
	raw, _ := hex.DecodeString(goldenManifest)
	payload, err := framing.Verify(raw)
	if err != nil {
		t.Fatal(err)
	}
	height, liveKeys, seqs, err := decodeManifest(payload)
	if err != nil || height != (rwset.Version{BlockNum: 7, TxNum: 2}) || liveKeys != 3 || !reflect.DeepEqual(seqs, []uint64{1, 4}) {
		t.Fatalf("golden manifest decoded to %v, %d, %v (%v)", height, liveKeys, seqs, err)
	}
	if err := (&lsmBackend{dir: dir}).writeManifestLocked(height, liveKeys, seqs); err != nil {
		t.Fatal(err)
	}
	requireHex(t, filepath.Join(dir, manifestFileName), goldenManifest)

	entries := []runEntry{
		{ikey: "da", value: []byte("1"), version: rwset.Version{BlockNum: 1}},
		{ikey: "db", tombstone: true, version: rwset.Version{BlockNum: 2, TxNum: 1}},
		{ikey: "mx", value: []byte("meta")},
	}
	old, fresh := filepath.Join(dir, runFileName(1)), filepath.Join(dir, runFileName(2))
	writeHex(t, old, goldenRun)
	r, err := openRun(old, 1)
	if err != nil {
		t.Fatalf("opening the golden run: %v", err)
	}
	defer r.close()
	var got []runEntry
	for i := range r.index {
		block, err := r.readBlock(i)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, block...)
	}
	if !reflect.DeepEqual(got, entries) {
		t.Fatalf("golden run holds %+v, want %+v", got, entries)
	}
	if err := writeRun(fresh, entries, 16); err != nil {
		t.Fatal(err)
	}
	requireHex(t, fresh, goldenRun)
}
