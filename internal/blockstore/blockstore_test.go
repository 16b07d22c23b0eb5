package blockstore

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"fabriccrdt/internal/framing"
	"fabriccrdt/internal/ledger"
)

// makeChain builds n+1 deterministic hash-chained blocks (genesis plus n
// single-transaction blocks) for the tests to store.
func makeChain(t *testing.T, n int) []*ledger.Block {
	t.Helper()
	blocks := []*ledger.Block{ledger.Genesis("ch1")}
	for i := 1; i <= n; i++ {
		txs := []*ledger.Transaction{{
			ID: fmt.Sprintf("tx-%d", i), ChannelID: "ch1", Chaincode: "cc",
		}}
		dataHash, err := ledger.ComputeDataHash(txs)
		if err != nil {
			t.Fatal(err)
		}
		prev := blocks[i-1]
		blocks = append(blocks, &ledger.Block{
			Header:       ledger.BlockHeader{Number: uint64(i), PrevHash: prev.HeaderHash(), DataHash: dataHash},
			Transactions: txs,
			Metadata:     ledger.BlockMetadata{ValidationCodes: []ledger.ValidationCode{ledger.CodeValid}},
		})
	}
	return blocks
}

func appendAll(t *testing.T, s *Store, blocks []*ledger.Block) {
	t.Helper()
	for _, b := range blocks {
		if err := s.Append(b); err != nil {
			t.Fatalf("append block %d: %v", b.Header.Number, err)
		}
	}
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// requireBlocks checks that the store serves exactly blocks[0..n) with
// matching header hashes, and not block n.
func requireBlocks(t *testing.T, s *Store, blocks []*ledger.Block) {
	t.Helper()
	if got, want := s.Height(), uint64(len(blocks)); got != want {
		t.Fatalf("height = %d, want %d", got, want)
	}
	for i, want := range blocks {
		got, err := s.Get(uint64(i))
		if err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
		if !bytes.Equal(got.HeaderHash(), want.HeaderHash()) {
			t.Fatalf("Get(%d): header hash mismatch", i)
		}
		if len(got.Metadata.ValidationCodes) != len(want.Metadata.ValidationCodes) {
			t.Fatalf("Get(%d): validation codes lost", i)
		}
	}
	if _, err := s.Get(uint64(len(blocks))); !errors.Is(err, ledger.ErrBlockNotFound) {
		t.Fatalf("Get past height: %v, want ErrBlockNotFound", err)
	}
}

func TestRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	blocks := makeChain(t, 5)
	s := mustOpen(t, dir)
	appendAll(t, s, blocks)
	requireBlocks(t, s, blocks)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen (index sidecar present): same contents, appends continue.
	s = mustOpen(t, dir)
	requireBlocks(t, s, blocks)
	if err := s.Append(blocks[2]); err == nil {
		t.Fatal("out-of-sequence append accepted after reopen")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen without the sidecar: the log alone is authoritative.
	if err := os.Remove(filepath.Join(dir, idxFileName)); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir)
	defer s.Close()
	requireBlocks(t, s, blocks)
}

func TestAppendEnforcesSequence(t *testing.T) {
	blocks := makeChain(t, 2)
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	if err := s.Append(blocks[1]); err == nil {
		t.Fatal("append of block 1 to an empty store accepted")
	}
	appendAll(t, s, blocks)
	if err := s.Append(blocks[2]); err == nil {
		t.Fatal("duplicate append accepted")
	}
}

// TestTornTailTruncatedOnReopen mirrors the statedb disk suite: every
// prefix-truncation of the log's last frame must reopen cleanly with the
// damaged tail dropped, and the store must accept the dropped block again.
func TestTornTailTruncatedOnReopen(t *testing.T) {
	blocks := makeChain(t, 3)
	// Probe the last frame's size once so the cuts can land in its payload
	// tail, inside its header, and right after its header.
	probe := mustOpen(t, t.TempDir())
	appendAll(t, probe, blocks)
	frameSize := probe.size - probe.offsets[len(probe.offsets)-1]
	probe.Close()
	for _, cut := range []int64{1, frameSize - 3, frameSize - framing.HeaderLen - 1} {
		dir := t.TempDir()
		s := mustOpen(t, dir)
		appendAll(t, s, blocks)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		logPath := filepath.Join(dir, logFileName)
		info, err := os.Stat(logPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(logPath, info.Size()-cut); err != nil {
			t.Fatal(err)
		}
		s = mustOpen(t, dir)
		requireBlocks(t, s, blocks[:len(blocks)-1])
		// The dropped block can be re-appended: the torn tail is gone.
		if err := s.Append(blocks[len(blocks)-1]); err != nil {
			t.Fatalf("cut %d: re-append after truncation: %v", cut, err)
		}
		requireBlocks(t, s, blocks)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorruptTailBytesTruncatedOnReopen flips a byte inside the last
// frame's payload: the CRC must catch it and reopening must drop exactly
// that frame.
func TestCorruptTailBytesTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	blocks := makeChain(t, 3)
	s := mustOpen(t, dir)
	appendAll(t, s, blocks)
	lastOff := s.offsets[len(s.offsets)-1]
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, logFileName)
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	data[lastOff+framing.HeaderLen+4] ^= 0xFF
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// The sidecar indexes the now-corrupt frame; loadIndex must detect the
	// mismatch and fall back to a scan that truncates it.
	s = mustOpen(t, dir)
	defer s.Close()
	requireBlocks(t, s, blocks[:len(blocks)-1])
}

// TestCorruptIndexFallsBackToScan damages the sidecar only: the store must
// ignore it and recover everything from the log.
func TestCorruptIndexFallsBackToScan(t *testing.T) {
	dir := t.TempDir()
	blocks := makeChain(t, 4)
	s := mustOpen(t, dir)
	appendAll(t, s, blocks)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	idxPath := filepath.Join(dir, idxFileName)
	data, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	// Point the last offset somewhere implausible.
	binary.LittleEndian.PutUint64(data[len(data)-8:], 1<<40)
	if err := os.WriteFile(idxPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir)
	defer s.Close()
	requireBlocks(t, s, blocks)
}

// TestStaleIndexScansForward closes the store, removes frames the sidecar
// already covered... the inverse is the realistic crash: frames appended
// AFTER the last sidecar flush. Simulate by saving the sidecar early and
// restoring it after more appends.
func TestStaleIndexScansForward(t *testing.T) {
	dir := t.TempDir()
	blocks := makeChain(t, 6)
	s := mustOpen(t, dir)
	appendAll(t, s, blocks[:3])
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	stale, err := os.ReadFile(filepath.Join(dir, idxFileName))
	if err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir)
	appendAll(t, s, blocks[3:])
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, idxFileName), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir)
	defer s.Close()
	requireBlocks(t, s, blocks)
}

// TestConcurrentReadsDuringAppend serves reads of the whole log while appending — the
// SyncFrom-while-committing shape. Run with -race.
func TestConcurrentReadsDuringAppend(t *testing.T) {
	blocks := makeChain(t, 40)
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	appendAll(t, s, blocks[:1])
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				h := s.Height()
				if h == 0 {
					continue
				}
				if _, err := s.Get(h - 1); err != nil {
					t.Errorf("Get(%d): %v", h-1, err)
					return
				}
				for n := uint64(0); n < h; n++ {
					if _, err := s.Get(n); err != nil {
						t.Errorf("Get(%d): %v", n, err)
						return
					}
				}
			}
		}()
	}
	appendAll(t, s, blocks[1:])
	wg.Wait()
	requireBlocks(t, s, blocks)
}

func TestClosedStoreRefusesUse(t *testing.T) {
	blocks := makeChain(t, 1)
	s := mustOpen(t, t.TempDir())
	appendAll(t, s, blocks)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if err := s.Append(blocks[1]); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if _, err := s.Get(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("get after close: %v", err)
	}
}

// TestGoldenBytes pins the on-disk format: the fixtures are the blocks.log
// and blocks.idx written, by the encoder that predates internal/framing,
// for the "golden" channel's genesis block. They must open, and storing
// the same block must reproduce them byte for byte.
func TestGoldenBytes(t *testing.T) {
	golden := map[string]string{
		logFileName: "f9000000824bb4fd0100000000000000007b22686561646572223a7b226e756d626572223a302c227072657648617368223a6e756c6c2c226461746148617368223a225a526f58765342416b396e41444d30446f7033527338464c36754d49357950785164546a527737775268383d227d2c227472616e73616374696f6e73223a5b7b226964223a2267656e657369732d676f6c64656e222c226368616e6e656c223a22676f6c64656e222c22636861696e636f6465223a225f636f6e666967222c2263726561746f72223a6e756c6c2c227277736574223a7b7d7d5d2c226d65746164617461223a7b2276616c69646174696f6e436f646573223a5b315d7d7d",
		idxFileName: "190000006c46481c01010000000000000001010000000000000000000000000000",
	}
	genesis, err := ledger.NewChain("golden").Get(0)
	if err != nil {
		t.Fatal(err)
	}
	old, fresh := t.TempDir(), t.TempDir()
	for name, h := range golden {
		raw, _ := hex.DecodeString(h)
		if err := os.WriteFile(filepath.Join(old, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := mustOpen(t, old)
	requireBlocks(t, s, []*ledger.Block{genesis})
	s.Close()
	s = mustOpen(t, fresh)
	appendAll(t, s, []*ledger.Block{genesis})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{old, fresh} {
		for name, h := range golden {
			raw, err := os.ReadFile(filepath.Join(dir, name))
			if got := hex.EncodeToString(raw); err != nil || got != h {
				t.Errorf("%s in %s = %s (%v), want the golden %s", name, dir, got, err, h)
			}
		}
	}
}
