package ledger_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"fabriccrdt/internal/blockstore"
	"fabriccrdt/internal/ledger"
)

// storeKind opens (or reopens) a block store in dir; a Chain must behave
// the same over every kind.
type storeKind struct {
	name string
	// durable stores survive a reopen; the memory store is handed back
	// as is.
	open func(t *testing.T, dir string) ledger.BlockStore
}

func storeKinds() []storeKind {
	mem := make(map[string]*ledger.MemStore)
	return []storeKind{
		{"memory", func(t *testing.T, dir string) ledger.BlockStore {
			if s, ok := mem[dir]; ok {
				return s
			}
			s := ledger.NewMemStore(0)
			mem[dir] = s
			return s
		}},
		{"blockstore", func(t *testing.T, dir string) ledger.BlockStore {
			s, err := blockstore.Open(filepath.Join(dir, "blocks"), blockstore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			return s
		}},
	}
}

// forEachStore runs fn once per store kind, over a fresh chain of "ch1".
func forEachStore(t *testing.T, fn func(t *testing.T, c *ledger.Chain, store ledger.BlockStore)) {
	for _, kind := range storeKinds() {
		t.Run(kind.name, func(t *testing.T) {
			store := kind.open(t, t.TempDir())
			c, err := ledger.OpenChain("ch1", store)
			if err != nil {
				t.Fatal(err)
			}
			fn(t, c, store)
		})
	}
}

// nextBlock builds a block of txs chained onto c's tip.
func nextBlock(t *testing.T, c *ledger.Chain, ids ...string) *ledger.Block {
	t.Helper()
	num, hash := c.LastRef()
	txs := make([]*ledger.Transaction, len(ids))
	for i, id := range ids {
		txs[i] = &ledger.Transaction{ID: id, ChannelID: "ch1", Chaincode: "iot"}
	}
	dataHash, err := ledger.ComputeDataHash(txs)
	if err != nil {
		t.Fatal(err)
	}
	return &ledger.Block{
		Header:       ledger.BlockHeader{Number: num + 1, PrevHash: hash, DataHash: dataHash},
		Transactions: txs,
		Metadata:     ledger.BlockMetadata{ValidationCodes: make([]ledger.ValidationCode, len(txs))},
	}
}

func appendN(t *testing.T, c *ledger.Chain, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := c.Append(nextBlock(t, c, fmt.Sprintf("tx%d-%d", c.Height(), i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func TestChainAppendAndVerify(t *testing.T) {
	forEachStore(t, func(t *testing.T, c *ledger.Chain, store ledger.BlockStore) {
		if c.Height() != 1 {
			t.Fatalf("genesis height = %d", c.Height())
		}
		appendN(t, c, 5)
		if c.Height() != 6 || store.Height() != 6 {
			t.Fatalf("height = %d (store %d), want 6", c.Height(), store.Height())
		}
		if err := c.Verify(); err != nil {
			t.Fatalf("verify: %v", err)
		}
		got, err := c.Get(3)
		if err != nil || got.Header.Number != 3 {
			t.Fatalf("Get(3) = %+v, %v", got, err)
		}
	})
}

func TestAppendRejectsBadNumber(t *testing.T) {
	forEachStore(t, func(t *testing.T, c *ledger.Chain, store ledger.BlockStore) {
		b := nextBlock(t, c, "a")
		b.Header.Number = 7
		if err := c.Append(b); !errors.Is(err, ledger.ErrBadNumber) {
			t.Fatalf("out-of-sequence block: %v", err)
		}
		if store.Height() != 1 {
			t.Fatal("rejected block reached the store")
		}
	})
}

func TestAppendRejectsBadPrevHash(t *testing.T) {
	forEachStore(t, func(t *testing.T, c *ledger.Chain, store ledger.BlockStore) {
		b := nextBlock(t, c, "a")
		b.Header.PrevHash = []byte("forged")
		if err := c.Append(b); !errors.Is(err, ledger.ErrBadPrevHash) {
			t.Fatalf("forged prev-hash: %v", err)
		}
	})
}

func TestAppendRejectsTamperedData(t *testing.T) {
	forEachStore(t, func(t *testing.T, c *ledger.Chain, store ledger.BlockStore) {
		b := nextBlock(t, c, "a")
		b.Transactions[0].Args = [][]byte{[]byte("injected")} // data no longer matches DataHash
		if err := c.Append(b); !errors.Is(err, ledger.ErrBadDataHash) {
			t.Fatalf("tampered block: %v", err)
		}
	})
}

// TestVerifyDetectsRetroactiveTampering: a block written to the store
// behind the chain's back, which chains by number and prev-hash but not by
// data hash, is caught by Verify on a chain reopened over that store.
func TestVerifyDetectsRetroactiveTampering(t *testing.T) {
	forEachStore(t, func(t *testing.T, c *ledger.Chain, store ledger.BlockStore) {
		appendN(t, c, 2)
		b := nextBlock(t, c, "a")
		b.Transactions[0].Chaincode = "evil"
		if err := store.Append(b); err != nil {
			t.Fatal(err)
		}
		reopened, err := ledger.OpenChain("ch1", store)
		if err != nil {
			t.Fatal(err)
		}
		if err := reopened.Verify(); !errors.Is(err, ledger.ErrBadDataHash) {
			t.Fatalf("retroactive tampering: Verify = %v", err)
		}
	})
}

func TestGetOutOfRange(t *testing.T) {
	forEachStore(t, func(t *testing.T, c *ledger.Chain, store ledger.BlockStore) {
		if _, err := c.Get(9); !errors.Is(err, ledger.ErrBlockNotFound) {
			t.Fatalf("Get past the tip: %v", err)
		}
	})
}

func TestChainCheckNext(t *testing.T) {
	forEachStore(t, func(t *testing.T, c *ledger.Chain, store ledger.BlockStore) {
		good := nextBlock(t, c, "a")

		// Pre-flight of a valid next block passes and does not append.
		if err := c.CheckNext(good); err != nil {
			t.Fatalf("CheckNext(valid) = %v", err)
		}
		if c.Height() != 1 || store.Height() != 1 {
			t.Fatalf("CheckNext appended: height = %d", c.Height())
		}
		// The memo path: appending the pre-flighted block still works.
		if err := c.Append(good); err != nil {
			t.Fatalf("Append after CheckNext: %v", err)
		}

		// Wrong number (replays the same block) is rejected.
		if err := c.CheckNext(good); err == nil {
			t.Fatal("CheckNext accepted an already-appended number")
		}
		// Severed prev-hash is rejected.
		bad := nextBlock(t, c, "b")
		bad.Header.PrevHash = []byte("severed")
		if err := c.CheckNext(bad); err == nil {
			t.Fatal("CheckNext accepted a severed prev-hash")
		}
		// Data-hash mismatch is rejected, and a rejected block is not
		// memoized: Append must fail too.
		forged := nextBlock(t, c, "c")
		forged.Header.DataHash = []byte("forged")
		if err := c.CheckNext(forged); err == nil {
			t.Fatal("CheckNext accepted a forged data hash")
		}
		if err := c.Append(forged); err == nil {
			t.Fatal("Append accepted a forged data hash")
		}
	})
}

// TestChainReopen: a chain opened over a reopened store resumes at the
// same tip, serves every block from genesis, rejects a block that does not
// chain onto the tip and accepts one that does.
func TestChainReopen(t *testing.T) {
	for _, kind := range storeKinds() {
		t.Run(kind.name, func(t *testing.T) {
			dir := t.TempDir()
			store := kind.open(t, dir)
			c, err := ledger.OpenChain("ch1", store)
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, c, 4)
			tipNum, tipHash := c.LastRef()
			if bs, ok := store.(*blockstore.Store); ok {
				if err := bs.Close(); err != nil {
					t.Fatal(err)
				}
			}

			reopened, err := ledger.OpenChain("ch1", kind.open(t, dir))
			if err != nil {
				t.Fatal(err)
			}
			num, hash := reopened.LastRef()
			if num != tipNum || string(hash) != string(tipHash) {
				t.Fatalf("reopened tip = (%d, %x), want (%d, %x)", num, hash, tipNum, tipHash)
			}
			for n := uint64(0); n <= tipNum; n++ {
				if b, err := reopened.Get(n); err != nil || b.Header.Number != n {
					t.Fatalf("Get(%d) = %v, %v", n, b, err)
				}
			}
			if err := reopened.Verify(); err != nil {
				t.Fatal(err)
			}
			stray := nextBlock(t, reopened, "stray")
			stray.Header.PrevHash = ledger.Genesis("ch1").HeaderHash()
			if err := reopened.Append(stray); !errors.Is(err, ledger.ErrBadPrevHash) {
				t.Fatalf("block not chaining onto the tip: %v", err)
			}
			appendN(t, reopened, 1)
			if reopened.Height() != tipNum+2 {
				t.Fatalf("height after append = %d, want %d", reopened.Height(), tipNum+2)
			}
		})
	}
}

// TestOpenChainRefusesForeignGenesis: a store holding another channel's
// genesis is not this channel's block log.
func TestOpenChainRefusesForeignGenesis(t *testing.T) {
	for _, kind := range storeKinds() {
		t.Run(kind.name, func(t *testing.T) {
			store := kind.open(t, t.TempDir())
			if _, err := ledger.OpenChain("ch1", store); err != nil {
				t.Fatal(err)
			}
			if _, err := ledger.OpenChain("ch2", store); err == nil {
				t.Fatal("OpenChain accepted another channel's block log")
			}
		})
	}
}
