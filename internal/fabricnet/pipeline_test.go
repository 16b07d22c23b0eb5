package fabricnet

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/orderer"
	"fabriccrdt/internal/peer"
)

// poisonChannel commits a forged block 1 directly on one peer's channel,
// out of band. When the orderer later delivers the real block 1, that
// peer's committer fails ("re-delivered block 1 does not match the
// committed block") — a deterministic mid-stream commit failure on one
// (peer, channel) pair while every other peer stays healthy.
func poisonChannel(t *testing.T, p *peer.Peer, channelID string) {
	t.Helper()
	chain, err := p.ChainOn(channelID)
	if err != nil {
		t.Fatal(err)
	}
	forged := &ledger.Transaction{ID: "forged-poison", ChannelID: channelID, Chaincode: "iot"}
	num, hash := chain.LastRef()
	a := orderer.NewAssemblerAt(num, hash)
	block, err := a.Assemble(orderer.Batch{Transactions: []*ledger.Transaction{forged}, Reason: orderer.CutFlush})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.CommitBlockOn(channelID, block); err != nil {
		t.Fatalf("committing forged block: %v", err)
	}
}

// runOrFatal fails the test if fn does not return in time — the shape of
// the deadlock regressions: before the fix these paths hung forever.
func runOrFatal(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v (delivery wedged)", what, d)
	}
}

// TestCommitterFailureDoesNotWedgeNetwork is the deadlock regression from
// DESIGN.md §7: one peer's committer fails on the first delivered block,
// and the network keeps running. Before the fix the failed committer
// stopped reading its deliver channel; once the orderer had cut 64 more
// blocks its fan-out blocked under the service mutex and every Broadcast
// (so every submission), Flush and Stop on the channel hung. The 80
// single-transaction blocks exceed that old buffer with margin.
func TestCommitterFailureDoesNotWedgeNetwork(t *testing.T) {
	n := newNet(t, 1, true) // block size 1: one block per transaction
	victim, err := n.Peer("Org3.peer1")
	if err != nil {
		t.Fatal(err)
	}
	poisonChannel(t, victim, n.DefaultChannel())
	n.Start()

	c, err := n.NewClient("Org1", "client0", []string{"Org1"})
	if err != nil {
		t.Fatal(err)
	}
	const total = 80
	runOrFatal(t, 60*time.Second, fmt.Sprintf("%d submissions", total), func() {
		var wg sync.WaitGroup
		for i := 0; i < total; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := c.SubmitAndWait(30*time.Second, "iot", []byte("record"), []byte("dev"), []byte(fmt.Sprintf("%d", i))); err != nil {
					t.Errorf("tx %d: %v", i, err)
				}
			}(i)
		}
		wg.Wait()
	})
	runOrFatal(t, 10*time.Second, "Stop", n.Stop)

	err = n.Err()
	if err == nil {
		t.Fatal("Err() = nil, want the victim's commit failure")
	}
	if !strings.Contains(err.Error(), victim.Name()) {
		t.Fatalf("Err() = %v, want it to name %s", err, victim.Name())
	}

	// The healthy peers converged at 80 committed blocks; the victim is
	// stuck at its forged block 1 (it drained, never committed).
	for _, p := range n.Peers() {
		want := uint64(total)
		if p == victim {
			want = 1
		}
		if got := p.Height(); got != want {
			t.Errorf("peer %s height = %d, want %d", p.Name(), got, want)
		}
	}
}

// TestChannelFaultIsolationOnFailure: a commit failure on one channel of
// one peer must not disturb the other channel anywhere — per-channel fault
// isolation of the delivery pipelines. Run with -race in CI.
func TestChannelFaultIsolationOnFailure(t *testing.T) {
	n := newMultiNet(t, 1, peer.CommitterConfig{}, "ch1", "ch2")
	victim, err := n.Peer("Org3.peer1")
	if err != nil {
		t.Fatal(err)
	}
	poisonChannel(t, victim, "ch1")
	n.Start()

	const perChannel = 20
	var wg sync.WaitGroup
	for _, chID := range []string{"ch1", "ch2"} {
		c, err := n.NewClientOn(chID, "Org1", "client-"+chID, []string{"Org1"})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perChannel; i++ {
			wg.Add(1)
			go func(chID string, i int) {
				defer wg.Done()
				if _, err := c.SubmitAndWait(30*time.Second, "iot", []byte("record"), []byte("dev-"+chID), []byte(fmt.Sprintf("%d", i))); err != nil {
					t.Errorf("%s tx %d: %v", chID, i, err)
				}
			}(chID, i)
		}
	}
	runOrFatal(t, 60*time.Second, "submissions", wg.Wait)
	runOrFatal(t, 10*time.Second, "Stop", n.Stop)

	err = n.Err()
	if err == nil {
		t.Fatal("Err() = nil, want the ch1 commit failure")
	}
	if !strings.Contains(err.Error(), "ch1") || !strings.Contains(err.Error(), victim.Name()) {
		t.Fatalf("Err() = %v, want it to name ch1 and %s", err, victim.Name())
	}

	// ch2 converged everywhere — including on the victim.
	ref, _ := n.Peers()[0].DBOn("ch2")
	want, ok := ref.Get("dev-ch2")
	if !ok {
		t.Fatal("dev-ch2 missing on reference peer")
	}
	for _, p := range n.Peers() {
		h, err := p.HeightOn("ch2")
		if err != nil {
			t.Fatal(err)
		}
		if h != perChannel {
			t.Errorf("peer %s ch2 height = %d, want %d", p.Name(), h, perChannel)
		}
		db, err := p.DBOn("ch2")
		if err != nil {
			t.Fatal(err)
		}
		got, ok := db.Get("dev-ch2")
		if !ok || string(got.Value) != string(want.Value) {
			t.Errorf("peer %s ch2 state diverged", p.Name())
		}
		chain, err := p.ChainOn("ch2")
		if err != nil {
			t.Fatal(err)
		}
		if err := chain.Verify(); err != nil {
			t.Errorf("peer %s ch2 chain: %v", p.Name(), err)
		}
		// ch1 on the victim is stuck at the forged block; elsewhere fine.
		h1, _ := p.HeightOn("ch1")
		if p == victim {
			if h1 != 1 {
				t.Errorf("victim ch1 height = %d, want 1 (stuck at forged block)", h1)
			}
		} else if h1 != perChannel {
			t.Errorf("peer %s ch1 height = %d, want %d", p.Name(), h1, perChannel)
		}
	}
}

// TestPipelinedNetworkConverges runs the standard conflicting workload
// through a network whose every (peer, channel) pair commits through the
// async pipeline with two endorsement-validation workers: everything
// commits, all peers converge, no errors — the end-to-end check that
// pipelining changes scheduling, not outcomes.
func TestPipelinedNetworkConverges(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	cfg := PaperConfig(10, true)
	cfg.Orderer.BatchTimeout = 100 * time.Millisecond
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.InstallChaincode("iot", iotCC(), testPolicy); err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()

	c, err := n.NewClient("Org1", "client0", []string{"Org1"})
	if err != nil {
		t.Fatal(err)
	}
	const total = 40
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.SubmitAndWait(10*time.Second, "iot", []byte("record"), []byte("dev1"), []byte(fmt.Sprintf("%d", i))); err != nil {
				t.Errorf("tx %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	n.Stop()
	if err := n.Err(); err != nil {
		t.Fatal(err)
	}
	ref := n.Peers()[0]
	want, ok := ref.DB().Get("dev1")
	if !ok {
		t.Fatal("dev1 missing")
	}
	for _, p := range n.Peers()[1:] {
		got, ok := p.DB().Get("dev1")
		if !ok || string(got.Value) != string(want.Value) {
			t.Fatalf("peer %s diverged under pipelining", p.Name())
		}
		if p.Chain().Height() != ref.Chain().Height() {
			t.Fatalf("peer %s height %d vs %d", p.Name(), p.Chain().Height(), ref.Chain().Height())
		}
	}
	// The pipelined run actually overlapped prepare work with commits.
	var sawOverlap bool
	for _, s := range ref.CommitTimings() {
		if s.Stage == peer.StageOverlap && s.Count > 0 {
			sawOverlap = true
		}
	}
	if !sawOverlap {
		t.Log("no overlap observations recorded (slow host or no back-to-back blocks) — scheduling-dependent, not an error")
	}
}
