package fabricnet

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"fabriccrdt/internal/peer"
)

// newDiskNet assembles the paper topology with every peer persisting under
// dir/<peer-name>.
func newDiskNet(t *testing.T, dir string) *Network {
	t.Helper()
	cfg := PaperConfig(10, true)
	cfg.Orderer.BatchTimeout = 100 * time.Millisecond
	cfg.Committer = peer.CommitterConfig{Backend: peer.BackendDisk, DataDir: dir}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.InstallChaincode("iot", iotCC(), testPolicy); err != nil {
		t.Fatal(err)
	}
	return n
}

func submitReadings(t *testing.T, n *Network, count, base int) {
	t.Helper()
	c, err := n.NewClient("Org1", fmt.Sprintf("client-%d", base), []string{"Org1"})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, count)
	for i := 0; i < count; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.SubmitAndWait(10*time.Second, "iot", []byte("record"), []byte("dev1"), []byte(fmt.Sprintf("%d", base+i)))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
	}
}

// TestNetworkRestartFromDisk stops a disk-backed network and rebuilds it
// over the same data directory: every peer must resume at the recorded
// height with identical state, the rebuilt orderer must continue block
// numbering from the checkpoint, and new traffic must keep extending the
// restored CRDT documents.
func TestNetworkRestartFromDisk(t *testing.T) {
	dir := t.TempDir()

	n := newDiskNet(t, dir)
	n.Start()
	submitReadings(t, n, 20, 0)
	n.Stop()
	if err := n.Err(); err != nil {
		t.Fatal(err)
	}
	vvBefore, ok := n.Peers()[0].DB().Get("dev1")
	if !ok {
		t.Fatal("dev1 missing before restart")
	}
	heightBefore := n.Peers()[0].Height()
	if heightBefore == 0 {
		t.Fatal("no blocks committed before restart")
	}

	// Rebuild the whole network over the same directory.
	n2 := newDiskNet(t, dir)
	for _, p := range n2.Peers() {
		if got := p.Height(); got != heightBefore {
			t.Fatalf("peer %s resumed at %d, want %d", p.Name(), got, heightBefore)
		}
		vv, ok := p.DB().Get("dev1")
		if !ok || string(vv.Value) != string(vvBefore.Value) {
			t.Fatalf("peer %s state diverged across restart", p.Name())
		}
	}
	// The rebuilt peers kept their block bodies: the pre-restart history is
	// servable from block 0 and the world state is re-derivable from it.
	p0 := n2.Peers()[0]
	for num := uint64(0); num <= heightBefore; num++ {
		if _, err := p0.Chain().Get(num); err != nil {
			t.Fatalf("restarted peer cannot serve block %d: %v", num, err)
		}
	}
	if err := p0.RebuildState(); err != nil {
		t.Fatalf("RebuildState on a restarted network peer: %v", err)
	}
	if vv, ok := p0.DB().Get("dev1"); !ok || string(vv.Value) != string(vvBefore.Value) {
		t.Fatal("rebuilt state diverged from the pre-restart state")
	}
	n2.Start()
	submitReadings(t, n2, 20, 1000)
	n2.Stop()
	if err := n2.Err(); err != nil {
		t.Fatal(err)
	}
	for _, p := range n2.Peers() {
		if got := p.Height(); got <= heightBefore {
			t.Fatalf("peer %s did not advance past %d", p.Name(), heightBefore)
		}
	}
	// Stop closed the peers' block stores; reopen them to verify the
	// chains.
	n3 := newDiskNet(t, dir)
	for _, p := range n3.Peers() {
		if err := p.Chain().Verify(); err != nil {
			t.Fatalf("peer %s chain after restart: %v", p.Name(), err)
		}
	}
	n3.Start()
	n3.Stop()
	vv, _ := n2.Peers()[0].DB().Get("dev1")
	var doc map[string]any
	if err := json.Unmarshal(vv.Value, &doc); err != nil {
		t.Fatal(err)
	}
	if readings := doc["tempReadings"].([]any); len(readings) != 40 {
		t.Fatalf("readings after restart run = %d, want 40 (20 per run, no update loss)", len(readings))
	}
}

// TestNetworkRestartRejectsDivergedHeights wipes one peer's store between
// runs: the network must refuse to assemble rather than let peers resume
// from different histories.
func TestNetworkRestartRejectsDivergedHeights(t *testing.T) {
	dir := t.TempDir()
	n := newDiskNet(t, dir)
	n.Start()
	submitReadings(t, n, 10, 0)
	n.Stop()
	if err := n.Err(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(dir, "Org2.peer1")); err != nil {
		t.Fatal(err)
	}
	cfg := PaperConfig(10, true)
	cfg.Committer = peer.CommitterConfig{Backend: peer.BackendDisk, DataDir: dir}
	if _, err := New(cfg); err == nil {
		t.Fatal("network assembled with peers at diverging heights")
	}
}

// TestNewRejectsBadBackend covers the network-level plumbing of the
// backend knob.
func TestNewRejectsBadBackend(t *testing.T) {
	cfg := PaperConfig(10, true)
	cfg.Committer = peer.CommitterConfig{Backend: "bogus"}
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown backend accepted")
	}
	cfg.Committer = peer.CommitterConfig{Backend: peer.BackendDisk}
	if _, err := New(cfg); err == nil {
		t.Fatal("disk backend without DataDir accepted")
	}
}
