// Observability tests for the assembled network: the registries a metrics
// server would merge, and span accounting under transport chaos.
package fabricnet

import (
	"bytes"
	"testing"
	"time"

	"fabriccrdt/internal/obs"
	"fabriccrdt/internal/peer"
	"fabriccrdt/internal/transport"
)

// TestNetworkRegistriesRenderValidExposition asserts the in-process
// network's merged registries (what -metrics-addr serves) render a valid
// Prometheus exposition containing the commit-path histograms and
// queue-depth gauges after a run.
func TestNetworkRegistriesRenderValidExposition(t *testing.T) {
	cfg := PaperConfig(5, true)
	cfg.Orderer.BatchTimeout = 50 * time.Millisecond
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.InstallChaincode("iot", iotCC(), testPolicy); err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()
	submitAll(t, n, 10)

	var buf bytes.Buffer
	if err := obs.Render(&buf, n.Registries()...); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("merged registries render malformed exposition: %v\n%s", err, body)
	}
	for _, want := range []string{
		obs.MetricCommitStageSeconds + "_bucket",
		obs.MetricPeerBlockHeight,
		obs.MetricPeerBlocksCommitted,
		obs.MetricHistoryLagBlocks,
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
}

// waitHeightsEqual polls until every peer reports the same height on its
// default channel (the chaos-afflicted peer catching up after a heal).
func waitHeightsEqual(t *testing.T, peers []*peer.Peer, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		heights := make([]uint64, len(peers))
		for i, p := range peers {
			h, err := p.HeightOn(p.Channels()[0])
			if err != nil {
				t.Fatal(err)
			}
			heights[i] = h
		}
		equal := heights[0] > 0
		for _, h := range heights[1:] {
			equal = equal && h == heights[0]
		}
		if equal {
			return
		}
		if time.Now().After(deadline) {
			for _, p := range peers {
				h, _ := p.HeightOn(p.Channels()[0])
				t.Logf("peer %s at height %d", p.Name(), h)
			}
			t.Fatal("peers did not converge to a common height")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChaosDoesNotCorruptSpanAccounting is the ISSUE 8 conformance case:
// duplicated and dropped frames on one peer's deliver stream must not
// duplicate or lose commit spans. Re-delivered blocks fast-forward without
// re-committing (and without re-emitting spans), so every (trace, peer)
// pair records EXACTLY one peer.commit span even under faults.
func TestChaosDoesNotCorruptSpanAccounting(t *testing.T) {
	tracer := obs.NewTracer("fabricnet-test")
	obs.SetDefaultTracer(tracer)
	defer obs.SetDefaultTracer(nil)

	cfg := PaperConfig(5, true)
	cfg.Orderer.BatchTimeout = 50 * time.Millisecond
	var chaos *transport.Chaos
	cfg.TransportWrap = func(peerName, channelID string, tr transport.Transport) transport.Transport {
		if peerName != "Org3.peer1" {
			return tr
		}
		// Drop an EARLY block (the gap a later block exposes, forcing a
		// reconnect + redelivery) and duplicate others; capped so the last
		// blocks flow clean and the run converges.
		chaos = transport.NewChaos(tr, transport.ChaosConfig{DuplicateNth: 2, DropNth: 3, MaxFaults: 3})
		return chaos
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.InstallChaincode("iot", iotCC(), testPolicy); err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()
	const txs = 25
	submitAll(t, n, txs)
	// SubmitAndWait only proves the gateway peer committed; give the
	// chaos-afflicted peer time to heal its stream and catch up to the
	// common height before stopping.
	waitHeightsEqual(t, n.Peers(), 10*time.Second)
	n.Stop()
	if err := n.Err(); err != nil {
		t.Fatalf("healed chaos faults must not fail the run: %v", err)
	}
	if chaos == nil || chaos.Faults() == 0 {
		t.Fatal("chaos injected no faults — nothing was proven")
	}
	assertConverged(t, n.Peers())

	// Every transaction minted a trace; every peer must have recorded
	// exactly one commit span for it — a duplicate-delivered block that
	// re-emitted spans would show 2, a dropped-and-lost one 0.
	type key struct{ trace, peer string }
	commits := make(map[key]int)
	traces := make(map[string]bool)
	for _, sp := range tracer.Spans() {
		switch sp.Name {
		case "client.prepare":
			traces[sp.TraceID] = true
		case "peer.commit":
			commits[key{sp.TraceID, sp.Attrs["peer"]}]++
		}
	}
	if len(traces) != txs {
		t.Fatalf("got %d distinct traces, want %d", len(traces), txs)
	}
	for id := range traces {
		for _, p := range n.Peers() {
			if got := commits[key{id, p.Name()}]; got != 1 {
				t.Fatalf("trace %s on peer %s: %d commit spans, want exactly 1 (faults=%d)",
					id, p.Name(), got, chaos.Faults())
			}
		}
	}
}
