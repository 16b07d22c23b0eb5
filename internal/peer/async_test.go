package peer

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/orderer"
)

// buildStream assembles a chained multi-block stream with a rich code mix:
// conflicting CRDT merges, MVCC winners and losers, a tampered signature,
// an in-block duplicate, and — the case that separates the two pipeline
// shapes — a cross-block duplicate whose signature is ALSO tampered. The
// synchronous pipeline never endorse-validates a screened duplicate, so
// its code is DUPLICATE; the async pipeline endorse-validates it ahead of
// time (finding the bad signature) and must still report DUPLICATE.
func buildStream(t *testing.T, env *pipelineEnv, nBlocks int) []*ledger.Block {
	t.Helper()
	chain := env.baseline.Chain()
	num, hash := chain.LastRef()
	a := orderer.NewAssemblerAt(num, hash)
	var blocks []*ledger.Block
	for b := 0; b < nBlocks; b++ {
		var txs []*ledger.Transaction
		for i := 0; i < 6; i++ {
			devA := fmt.Sprintf("dev%d", i%3)
			devB := fmt.Sprintf("dev%d", (i+1)%3)
			txs = append(txs, env.endorseTx(t, fmt.Sprintf("crdt-%d-%d", b, i), "iot", "append", devA, devB, fmt.Sprintf("r%d-%d", b, i)))
		}
		txs = append(txs, env.endorseTx(t, fmt.Sprintf("plain-%d", b), "plain", "put", "acct", fmt.Sprintf("%d", b)))
		switch b {
		case 1:
			forged := env.endorseTx(t, "forged-sig", "plain", "put", "other", "x")
			forged.Endorsements[0].Signature[0] ^= 0xff
			txs = append(txs, forged, txs[0]) // bad signature + in-block duplicate
		case 3:
			// Cross-block duplicate of a block-0 transaction, with a
			// tampered signature on top: dedup precedence must win.
			dup := env.endorseTx(t, "crdt-0-0", "iot", "append", "dev0", "dev1", "dup")
			dup.Endorsements[0].Signature[0] ^= 0xff
			txs = append(txs, dup)
		}
		block, err := a.Assemble(orderer.Batch{Transactions: txs, Reason: orderer.CutMaxMessages})
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, block)
	}
	return blocks
}

// feed returns a closed channel pre-loaded with the whole stream.
func feed(blocks []*ledger.Block) <-chan *ledger.Block {
	ch := make(chan *ledger.Block, len(blocks))
	for _, b := range blocks {
		ch <- b
	}
	close(ch)
	return ch
}

// TestCommitPipelineMatchesCommitBlockOn is the async pipeline's acceptance
// guarantee: the same delivered stream commits to byte-identical validation
// codes, world state, versions, CRDT documents and hash chain through
// CommitPipeline as through a plain CommitBlockOn loop — the synchronous
// reference — at every derived worker count. Run with -race in CI (the
// prepare/finalize handoff runs concurrently).
func TestCommitPipelineMatchesCommitBlockOn(t *testing.T) {
	env := newPipelineEnv(t, []variant{{procs: 1}, {procs: 2}, {procs: 4}, {procs: 8}})
	env.install(t, "iot", multiKeyCRDTChaincode())
	env.install(t, "plain", plainChaincode())
	blocks := buildStream(t, env, 5)

	// Baseline: the synchronous per-block API.
	for _, b := range blocks {
		if _, err := env.baseline.CommitBlockOn("ch1", b); err != nil {
			t.Fatalf("baseline block %d: %v", b.Header.Number, err)
		}
	}
	// The dedup-overrides-endorse case actually occurred.
	b3, err := env.baseline.Chain().Get(4)
	if err != nil {
		t.Fatal(err)
	}
	lastCode := b3.Metadata.ValidationCodes[len(b3.Metadata.ValidationCodes)-1]
	if lastCode != ledger.CodeDuplicate {
		t.Fatalf("cross-block dup with tampered signature = %v, want DUPLICATE", lastCode)
	}

	for _, p := range env.variants {
		if err := p.CommitPipeline("ch1", feed(blocks)); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		// Chain: same height, same header hashes, same recorded codes.
		if got, want := p.Chain().Height(), env.baseline.Chain().Height(); got != want {
			t.Fatalf("%s: chain height %d, want %d", p.Name(), got, want)
		}
		for n := uint64(0); n < env.baseline.Chain().Height(); n++ {
			want, err := env.baseline.Chain().Get(n)
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.Chain().Get(n)
			if err != nil {
				t.Fatalf("%s: block %d: %v", p.Name(), n, err)
			}
			if !bytes.Equal(got.HeaderHash(), want.HeaderHash()) {
				t.Errorf("%s: block %d header hash diverged", p.Name(), want.Header.Number)
			}
			if !reflect.DeepEqual(got.Metadata.ValidationCodes, want.Metadata.ValidationCodes) {
				t.Errorf("%s: block %d codes = %v, want %v", p.Name(), want.Header.Number, got.Metadata.ValidationCodes, want.Metadata.ValidationCodes)
			}
		}
		assertSameWorldState(t, env.baseline, p)
	}
}

// TestCommitPipelineDrainsAfterPrepareFailure: a prepare-stage failure
// (here: the whole pipeline bound to a channel the peer never joined)
// must surface as the returned error and still drain the stream to its
// end, with nothing committed.
func TestCommitPipelineDrainsAfterPrepareFailure(t *testing.T) {
	env := newPipelineEnv(t, []variant{{procs: 1}})
	env.install(t, "iot", multiKeyCRDTChaincode())
	env.install(t, "plain", plainChaincode())
	blocks := buildStream(t, env, 4)
	p := env.variants[0]
	deliver := feed(blocks)
	err := p.CommitPipeline("not-joined", deliver)
	if !errors.Is(err, ErrUnknownChannel) {
		t.Fatalf("err = %v, want ErrUnknownChannel", err)
	}
	if _, open := <-deliver; open {
		t.Error("deliver channel not fully drained after prepare failure")
	}
	if got := p.Height(); got != 0 {
		t.Errorf("height = %d, want 0", got)
	}
}

// TestCommitPipelineDrainsAfterFailure: a mid-stream commit failure must
// surface as the pipeline's return error AND the pipeline must keep
// consuming the stream to its end — an abandoned subscription that stops
// reading is exactly the backpressure bug the async pipeline exists to
// prevent.
func TestCommitPipelineDrainsAfterFailure(t *testing.T) {
	env := newPipelineEnv(t, []variant{{procs: 1}})
	env.install(t, "iot", multiKeyCRDTChaincode())
	env.install(t, "plain", plainChaincode())
	blocks := buildStream(t, env, 6)
	// Corrupt the chain link of block 3: its finalize fails at append.
	bad := *blocks[2]
	bad.Header.PrevHash = []byte("severed")
	blocks[2] = &bad

	p := env.variants[0]
	deliver := feed(blocks)
	err := p.CommitPipeline("ch1", deliver)
	if err == nil {
		t.Fatal("pipeline returned nil for a severed chain")
	}
	if !strings.Contains(err.Error(), "block 3") {
		t.Errorf("err = %v, want the block-3 failure", err)
	}
	if _, open := <-deliver; open {
		t.Error("deliver channel not fully drained after failure")
	}
	// The chain holds exactly the blocks before the failure (genesis plus
	// blocks 1-2) and nothing after it was committed. The state too: the
	// severed block is rejected by the pre-apply chain check, so its writes
	// never reach the (durable) world state — a restarted peer would resume
	// from block 2's checkpoint, not a poisoned one.
	if got := p.Chain().Height(); got != 3 {
		t.Errorf("chain height = %d, want 3 (genesis + 2 blocks)", got)
	}
	if got := p.Height(); got != 2 {
		t.Errorf("state height = %d, want 2 (severed block must not apply)", got)
	}
}
