// Package conformance is the behavioral contract every transport.Transport
// implementation must satisfy, expressed as a reusable test suite: ordering,
// at-least-once delivery with fast-forward dedup, freedom from producer
// backpressure, clean shutdown, error propagation (with the retryable/fatal
// split preserved end to end), and survival of the Chaos fault catalogue —
// dropped, duplicated, reordered and tampered blocks plus mid-stream
// disconnects — driven through a real committing peer.
//
// A transport registers by calling Run with a Factory that turns a server
// assembly (*transport.Node) into the client-side Transport under test: the
// in-process factory returns the node itself; the wire factory serves the
// node on a loopback listener and dials it. Both run the exact same
// contracts (internal/transport and internal/wire do, under -race, via
// `make test-wire`).
package conformance

import (
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"fabriccrdt/internal/cryptoid"
	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/orderer"
	"fabriccrdt/internal/peer"
	"fabriccrdt/internal/rwset"
	"fabriccrdt/internal/transport"
)

// Factory builds the client-side view of a server assembly. Implementations
// register cleanup on t (closing listeners, connections) — the suite closes
// only what it creates itself.
type Factory func(t testing.TB, node *transport.Node) transport.Transport

// channel is the suite's single test channel.
const channel = "ch1"

// Run exercises every transport contract against the factory's transport.
func Run(t *testing.T, factory Factory) {
	t.Run("DeliverOrdering", func(t *testing.T) { testDeliverOrdering(t, factory) })
	t.Run("DeliverResume", func(t *testing.T) { testDeliverResume(t, factory) })
	t.Run("DeliverWaitsForTail", func(t *testing.T) { testDeliverWaitsForTail(t, factory) })
	t.Run("SlowConsumerNoBackpressure", func(t *testing.T) { testSlowConsumer(t, factory) })
	t.Run("CleanShutdown", func(t *testing.T) { testCleanShutdown(t, factory) })
	t.Run("StreamCloseIsLocal", func(t *testing.T) { testStreamCloseIsLocal(t, factory) })
	t.Run("DeliverBelowBaseFatal", func(t *testing.T) { testDeliverBelowBase(t, factory) })
	t.Run("UnknownChannelFatal", func(t *testing.T) { testUnknownChannel(t, factory) })
	t.Run("UnsupportedStreams", func(t *testing.T) { testUnsupported(t, factory) })
	t.Run("BroadcastRoutesByChannel", func(t *testing.T) { testBroadcastRouting(t, factory) })
	t.Run("RetryabilityCrossesTransport", func(t *testing.T) { testRetryability(t, factory) })
	t.Run("EndorseRoundTrip", func(t *testing.T) { testEndorseRoundTrip(t, factory) })
	t.Run("SubmitRoundTrip", func(t *testing.T) { testSubmitRoundTrip(t, factory) })
	t.Run("ChaosDrop", func(t *testing.T) {
		testChaosHeals(t, factory, transport.ChaosConfig{DropNth: 3, MaxFaults: 3})
	})
	t.Run("ChaosDuplicate", func(t *testing.T) {
		testChaosHeals(t, factory, transport.ChaosConfig{DuplicateNth: 2, MaxFaults: 4})
	})
	t.Run("ChaosReorder", func(t *testing.T) {
		testChaosHeals(t, factory, transport.ChaosConfig{ReorderNth: 4, MaxFaults: 2})
	})
	t.Run("ChaosDisconnect", func(t *testing.T) {
		testChaosHeals(t, factory, transport.ChaosConfig{DisconnectEvery: 5, MaxFaults: 2})
	})
	t.Run("ChaosDelayedEverything", func(t *testing.T) {
		testChaosHeals(t, factory, transport.ChaosConfig{
			Delay: time.Millisecond, DropNth: 5, DuplicateNth: 3, DisconnectEvery: 7, MaxFaults: 5,
		})
	})
	t.Run("ChaosTamperIsFatal", func(t *testing.T) { testChaosTamperFatal(t, factory) })
}

// blocks assembles n hash-chained blocks (numbers 1..n) after channel
// genesis, each carrying one placeholder transaction — the committer marks
// them invalid (no endorsements) and the chain still advances, which is all
// the transport layer's contracts need.
func blocks(t testing.TB, n int) []*ledger.Block {
	t.Helper()
	chain := ledger.NewChain(channel)
	num, hash := chain.LastRef()
	a := orderer.NewAssemblerAt(num, hash)
	out := make([]*ledger.Block, 0, n)
	for i := 0; i < n; i++ {
		b, err := a.Assemble(orderer.Batch{
			Transactions: []*ledger.Transaction{{ID: fmt.Sprintf("tx%d", i+1), ChannelID: channel}},
			Reason:       orderer.CutMaxMessages,
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// historyNode is a Node serving one in-memory history on the test channel.
func historyNode(h *transport.History) *transport.Node {
	return &transport.Node{
		NodeInfo:  transport.Info{Name: "conformance", Channels: []string{channel}},
		Histories: map[string]*transport.History{channel: h},
	}
}

// recvN reads n blocks or fails.
func recvN(t *testing.T, s transport.BlockStream, n int, wantFirst uint64) {
	t.Helper()
	for i := 0; i < n; i++ {
		b, err := s.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if want := wantFirst + uint64(i); b.Header.Number != want {
			t.Fatalf("recv %d: block %d, want %d", i, b.Header.Number, want)
		}
	}
}

func testDeliverOrdering(t *testing.T, factory Factory) {
	h := transport.NewHistory(1)
	tr := factory(t, historyNode(h))
	defer tr.Close()
	for _, b := range blocks(t, 8) {
		if err := h.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	s, err := tr.Deliver(channel, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recvN(t, s, 8, 1)
}

func testDeliverResume(t *testing.T, factory Factory) {
	h := transport.NewHistory(1)
	tr := factory(t, historyNode(h))
	defer tr.Close()
	for _, b := range blocks(t, 6) {
		h.Append(b)
	}
	// At-least-once: a consumer that already holds 1..4 reopens at 5 and
	// gets exactly the tail; reopening at 2 replays committed history.
	s, err := tr.Deliver(channel, 5)
	if err != nil {
		t.Fatal(err)
	}
	recvN(t, s, 2, 5)
	s.Close()
	s, err = tr.Deliver(channel, 2)
	if err != nil {
		t.Fatal(err)
	}
	recvN(t, s, 5, 2)
	s.Close()
}

func testDeliverWaitsForTail(t *testing.T, factory Factory) {
	h := transport.NewHistory(1)
	tr := factory(t, historyNode(h))
	defer tr.Close()
	bs := blocks(t, 3)
	h.Append(bs[0])
	// Open beyond the tail: Recv must wait for the producer, not error.
	s, err := tr.Deliver(channel, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := make(chan error, 1)
	go func() {
		_, err := s.Recv()
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("recv returned before tail reached block 2: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	h.Append(bs[1])
	if err := <-got; err != nil {
		t.Fatalf("recv after append: %v", err)
	}
}

func testSlowConsumer(t *testing.T, factory Factory) {
	h := transport.NewHistory(1)
	tr := factory(t, historyNode(h))
	defer tr.Close()
	// One consumer opens a stream and never reads.
	stuck, err := tr.Deliver(channel, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer stuck.Close()
	// The producer appends a pile of blocks: Append must never block on the
	// stuck consumer (the PR 4 fan-out deadlock, re-proven at the transport
	// boundary), and a second, live consumer must see everything.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, b := range blocks(t, 64) {
			h.Append(b)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("producer blocked behind a never-reading consumer")
	}
	live, err := tr.Deliver(channel, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	recvN(t, live, 64, 1)
}

func testCleanShutdown(t *testing.T, factory Factory) {
	h := transport.NewHistory(1)
	tr := factory(t, historyNode(h))
	defer tr.Close()
	for _, b := range blocks(t, 4) {
		h.Append(b)
	}
	s, err := tr.Deliver(channel, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recvN(t, s, 2, 1)
	// Closing the history mid-stream: the consumer still drains every
	// published block, THEN sees clean EOF — never an error.
	h.Close()
	recvN(t, s, 2, 3)
	if _, err := s.Recv(); !errors.Is(err, io.EOF) {
		t.Fatalf("after shutdown: got %v, want io.EOF", err)
	}
}

func testStreamCloseIsLocal(t *testing.T, factory Factory) {
	h := transport.NewHistory(1)
	tr := factory(t, historyNode(h))
	defer tr.Close()
	for _, b := range blocks(t, 3) {
		h.Append(b)
	}
	a, err := tr.Deliver(channel, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Deliver(channel, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	recvN(t, a, 1, 1)
	// Closing one stream must unblock its reader and leave the other
	// stream (and, for wire, the client) fully usable.
	waiting := make(chan error, 1)
	go func() {
		for {
			if _, err := a.Recv(); err != nil {
				waiting <- err
				return
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	select {
	case err := <-waiting:
		if !errors.Is(err, io.EOF) {
			t.Fatalf("closed stream recv: got %v, want io.EOF", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("close did not unblock recv")
	}
	recvN(t, b, 3, 1)
}

// openErr opens a deliver stream and returns its open failure, wherever the
// transport reports it — at Deliver, or on the first Recv (the contract
// allows both; a streaming transport learns open failures a round-trip
// late).
func openErr(t *testing.T, tr transport.Transport, channelID string, from uint64) error {
	t.Helper()
	s, err := tr.Deliver(channelID, from)
	if err != nil {
		return err
	}
	defer s.Close()
	_, err = s.Recv()
	return err
}

func testDeliverBelowBase(t *testing.T, factory Factory) {
	h := transport.NewHistory(5) // history truncated below block 5
	tr := factory(t, historyNode(h))
	defer tr.Close()
	err := openErr(t, tr, channel, 1)
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatal("deliver below retained base succeeded")
	}
	if transport.Retryable(err) {
		t.Fatalf("below-base error must be fatal, got retryable: %v", err)
	}
}

func testUnknownChannel(t *testing.T, factory Factory) {
	h := transport.NewHistory(1)
	tr := factory(t, historyNode(h))
	defer tr.Close()
	err := openErr(t, tr, "nope", 1)
	if err == nil || errors.Is(err, io.EOF) || transport.Retryable(err) {
		t.Fatalf("unknown channel must fail fatally, got %v", err)
	}
}

func testUnsupported(t *testing.T, factory Factory) {
	// A bare ordering-style node: no endorser, no submitter.
	h := transport.NewHistory(1)
	tr := factory(t, historyNode(h))
	defer tr.Close()
	if _, err := tr.Endorse(peer.Proposal{TxID: "t"}); err == nil {
		t.Fatal("endorse on non-endorsing node succeeded")
	} else if transport.Retryable(err) {
		t.Fatalf("unsupported endorse must be fatal, got retryable: %v", err)
	}
	if _, err := tr.Submit(&ledger.Transaction{ID: "t", ChannelID: channel}); err == nil {
		t.Fatal("submit on non-gateway node succeeded")
	} else if transport.Retryable(err) {
		t.Fatalf("unsupported submit must be fatal, got retryable: %v", err)
	}
}

// recordingBroadcaster captures broadcast envelopes.
type recordingBroadcaster struct {
	got chan *ledger.Transaction
	err error
}

func (r *recordingBroadcaster) Broadcast(tx *ledger.Transaction) error {
	if r.err != nil {
		return r.err
	}
	r.got <- tx
	return nil
}

func testBroadcastRouting(t *testing.T, factory Factory) {
	rb := &recordingBroadcaster{got: make(chan *ledger.Transaction, 1)}
	node := &transport.Node{
		NodeInfo:   transport.Info{Name: "orderer", Channels: []string{channel}},
		Broadcasts: map[string]transport.Broadcaster{channel: rb},
	}
	tr := factory(t, node)
	defer tr.Close()
	tx := &ledger.Transaction{ID: "tx-route", ChannelID: channel, Chaincode: "iot", Args: [][]byte{[]byte("a")}}
	if err := tr.Broadcast(tx); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-rb.got:
		if got.ID != tx.ID || got.ChannelID != channel || got.Chaincode != "iot" {
			t.Fatalf("broadcast arrived mangled: %+v", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("broadcast never reached the ordering service")
	}
	if err := tr.Broadcast(&ledger.Transaction{ID: "x", ChannelID: "nope"}); err == nil || transport.Retryable(err) {
		t.Fatalf("unknown-channel broadcast must fail fatally, got %v", err)
	}
}

func testRetryability(t *testing.T, factory Factory) {
	// A server-side RETRYABLE failure must still look retryable after
	// crossing the transport — the deliver loop's reconnect decision
	// depends on it.
	rb := &recordingBroadcaster{err: transport.Errorf("broadcast", true, "orderer draining, come back")}
	node := &transport.Node{
		NodeInfo:   transport.Info{Name: "orderer", Channels: []string{channel}},
		Broadcasts: map[string]transport.Broadcaster{channel: rb},
	}
	tr := factory(t, node)
	defer tr.Close()
	err := tr.Broadcast(&ledger.Transaction{ID: "x", ChannelID: channel})
	if err == nil {
		t.Fatal("broadcast succeeded against a draining orderer")
	}
	if !transport.Retryable(err) {
		t.Fatalf("server-side retryable error arrived fatal: %v", err)
	}
}

// echoEndorser proves proposal/response fields survive the round trip.
type echoEndorser struct{}

func (echoEndorser) Endorse(prop peer.Proposal) (peer.ProposalResponse, error) {
	if prop.Chaincode == "boom" {
		return peer.ProposalResponse{}, errors.New("chaincode exploded")
	}
	return peer.ProposalResponse{
		Endorser:  append([]byte("by:"), prop.Creator...),
		ChannelID: prop.ChannelID,
		Signature: []byte(prop.TxID),
		RWSet: rwset.ReadWriteSet{
			Writes: []rwset.Write{{Key: prop.Chaincode, Value: []byte("simulated"), IsCRDT: true}},
		},
	}, nil
}

func testEndorseRoundTrip(t *testing.T, factory Factory) {
	node := &transport.Node{
		NodeInfo: transport.Info{Name: "Org1.peer0", MSPID: "Org1"},
		Endorser: echoEndorser{},
	}
	tr := factory(t, node)
	defer tr.Close()
	resp, err := tr.Endorse(peer.Proposal{
		TxID: "tx9", ChannelID: channel, Chaincode: "iot",
		Args: [][]byte{[]byte("get"), []byte("dev1")}, Creator: []byte("alice"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Endorser) != "by:alice" || string(resp.Signature) != "tx9" || resp.ChannelID != channel {
		t.Fatalf("endorse response mangled: %+v", resp)
	}
	if len(resp.RWSet.Writes) != 1 || resp.RWSet.Writes[0].Key != "iot" || !resp.RWSet.Writes[0].IsCRDT {
		t.Fatalf("read/write set mangled in transit: %+v", resp.RWSet)
	}
	if _, err := tr.Endorse(peer.Proposal{TxID: "t", Chaincode: "boom"}); err == nil {
		t.Fatal("endorsement rejection vanished in transit")
	} else if transport.Retryable(err) {
		t.Fatalf("endorsement rejection must be fatal, got retryable: %v", err)
	}
}

// fakeGateway completes submissions instantly.
type fakeGateway struct{}

func (fakeGateway) Submit(tx *ledger.Transaction) (peer.CommitEvent, error) {
	return peer.CommitEvent{TxID: tx.ID, ChannelID: tx.ChannelID, BlockNum: 7, Code: ledger.CodeValid}, nil
}

func testSubmitRoundTrip(t *testing.T, factory Factory) {
	node := &transport.Node{
		NodeInfo:  transport.Info{Name: "gw", MSPID: "Org1"},
		Submitter: fakeGateway{},
	}
	tr := factory(t, node)
	defer tr.Close()
	ev, err := tr.Submit(&ledger.Transaction{ID: "tx42", ChannelID: channel})
	if err != nil {
		t.Fatal(err)
	}
	if ev.TxID != "tx42" || ev.ChannelID != channel || ev.BlockNum != 7 || ev.Code != ledger.CodeValid {
		t.Fatalf("commit event mangled: %+v", ev)
	}
}

// newCommittingPeer builds a real peer joined to the test channel.
func newCommittingPeer(t testing.TB) *peer.Peer {
	t.Helper()
	ca, err := cryptoid.NewCA("Org1")
	if err != nil {
		t.Fatal(err)
	}
	msp := cryptoid.NewMSP()
	msp.AddOrg("Org1", ca.PublicKey())
	signer, err := ca.Issue("Org1.peer0")
	if err != nil {
		t.Fatal(err)
	}
	p, err := peer.New(peer.Config{Name: "Org1.peer0", MSPID: "Org1", Channels: []string{channel}}, signer, msp)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// testChaosHeals drives a real committing peer through a chaos-wrapped
// transport and requires it to reach the full height with NO fatal error —
// drop and reorder force sequence-gap reconnects, duplicate exercises
// fast-forward dedup, disconnect exercises mid-stream reconnect.
func testChaosHeals(t *testing.T, factory Factory, cfg transport.ChaosConfig) {
	const n = 16
	h := transport.NewHistory(1)
	tr := factory(t, historyNode(h))
	defer tr.Close()
	chaos := transport.NewChaos(tr, cfg)
	for _, b := range blocks(t, n) {
		h.Append(b)
	}
	h.Close()
	p := newCommittingPeer(t)
	err := transport.DeliverToPeer(chaos, p, transport.DeliverConfig{
		ChannelID:  channel,
		Backoff:    time.Millisecond,
		MaxRetries: 100,
	}, nil)
	if err != nil {
		t.Fatalf("deliver loop died under chaos %+v: %v", cfg, err)
	}
	if chaos.Faults() == 0 {
		t.Fatalf("chaos %+v injected no faults — the contract proved nothing", cfg)
	}
	height, err := p.HeightOn(channel)
	if err != nil {
		t.Fatal(err)
	}
	if height != n {
		t.Fatalf("peer height %d after chaos %+v, want %d", height, cfg, n)
	}
}

// testChaosTamperFatal proves the OTHER half of the error discipline: a
// corrupted block is an application rejection (hash-chain violation), and
// the deliver loop must die on it, not reconnect-loop forever.
func testChaosTamperFatal(t *testing.T, factory Factory) {
	h := transport.NewHistory(1)
	tr := factory(t, historyNode(h))
	defer tr.Close()
	chaos := transport.NewChaos(tr, transport.ChaosConfig{TamperNth: 4, MaxFaults: 1})
	for _, b := range blocks(t, 8) {
		h.Append(b)
	}
	h.Close()
	p := newCommittingPeer(t)
	err := transport.DeliverToPeer(chaos, p, transport.DeliverConfig{
		ChannelID:  channel,
		Backoff:    time.Millisecond,
		MaxRetries: 100,
	}, nil)
	if err == nil {
		t.Fatal("tampered block committed — hash-chain verification lost in transit")
	}
	if transport.Retryable(err) {
		t.Fatalf("tampered block must be a FATAL error, got retryable: %v", err)
	}
	if height, _ := p.HeightOn(channel); height != 3 {
		t.Fatalf("peer height %d after tampered block 4, want 3", height)
	}
}
