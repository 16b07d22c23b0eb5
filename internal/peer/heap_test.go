package peer

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"fabriccrdt/internal/chaincode"
	"fabriccrdt/internal/ledger"
)

// TestDurablePeerHeapIsFlat: a peer on the LSM backend keeps its block
// bodies only in its block store, so its live heap does not grow with the
// committed history. The workload blind-writes a fixed set of keys (the
// world state stays the same size) with large values (each block is big),
// and the live heap after 4N blocks must stay within a margin of the heap
// after N. The margin covers what may legitimately differ between the two
// points: the memtable (up to its flush threshold, at twice its counted
// bytes for map overhead), the block cache, and allocator slack — far
// below the ~48 MiB of block bodies the last 3N blocks carry.
func TestDurablePeerHeapIsFlat(t *testing.T) {
	const (
		n           = 50
		txsPerBlock = 10
		valueBytes  = 32 << 10
		cacheBytes  = 1 << 20
		// memtableBytes is the LSM backend's default flush threshold.
		memtableBytes = 4 << 20
		margin        = 2*memtableBytes + cacheBytes + 4<<20
	)
	env := newEnvWithCommitter(t, false, CommitterConfig{
		Backend: BackendLSM, DataDir: t.TempDir(), StateCacheBytes: cacheBytes,
	})
	defer env.peer.Close()
	env.install(t, "blob", chaincode.Func(func(stub chaincode.Stub) error {
		_, params := stub.Function()
		return stub.PutState(params[0], bytes.Repeat([]byte(params[1]), valueBytes))
	}))

	commit := func(blocks int) {
		for b := 0; b < blocks; b++ {
			height := env.peer.Height()
			txs := make([]*ledger.Transaction, txsPerBlock)
			for i := range txs {
				id := fmt.Sprintf("tx-%d-%d", height, i)
				txs[i] = env.endorseTx(t, id, "blob", "put", fmt.Sprintf("key%d", i%4), fmt.Sprint(i%10))
			}
			res, err := env.peer.CommitBlock(makeBlock(t, env.peer, txs))
			if err != nil {
				t.Fatal(err)
			}
			for i, code := range res.Codes {
				if !code.Committed() {
					t.Fatalf("block %d tx %d: %v", res.BlockNum, i, code)
				}
			}
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	commit(n)
	atN := liveHeap()
	commit(3 * n)
	at4N := liveHeap()
	t.Logf("live heap: %.1f MiB after %d blocks, %.1f MiB after %d", float64(atN)/(1<<20), n, float64(at4N)/(1<<20), 4*n)
	if at4N > atN+margin {
		t.Fatalf("live heap grew from %d to %d bytes over %d blocks, past the %d-byte margin: the peer holds committed history in memory",
			atN, at4N, 3*n, margin)
	}
}
