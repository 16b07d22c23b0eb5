package fabricnet

import (
	"reflect"
	"testing"
	"time"

	"fabriccrdt/internal/cryptoid"
	"fabriccrdt/internal/endorse"
	"fabriccrdt/internal/peer"
	"fabriccrdt/internal/transport"
	"fabriccrdt/internal/wire"
)

// serveWire puts the network's transport node behind a real TCP listener
// and returns a dialed client.
func serveWire(t *testing.T, n *Network) *wire.Client {
	t.Helper()
	srv := wire.NewServer(n.Node(), n.Node().NodeInfo)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := wire.Dial(addr.String(), wire.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestWireSlowRemoteConsumer re-proves the PR 4 orderer fan-out regression
// across the socket boundary: a remote subscriber that opens a deliver
// stream and NEVER reads must not wedge ordering, in-process commits, or
// shutdown — its lag is absorbed by the channel History's cursor, and the
// orderer never blocks on it.
func TestWireSlowRemoteConsumer(t *testing.T) {
	n := newNet(t, 10, true)
	n.Start()
	defer n.Stop()
	wc := serveWire(t, n)

	// The hostile consumer: opens the stream, never calls Recv.
	stuck, err := wc.Deliver(n.DefaultChannel(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer stuck.Close()

	// Every submission completing under a never-reading remote subscriber
	// IS the regression proof — with per-subscriber queues this wedged.
	submitAll(t, n, 30)
	if err := n.Err(); err != nil {
		t.Fatal(err)
	}

	// A live remote consumer on the same client sees the full chain.
	height, err := n.Peers()[0].HeightOn(n.DefaultChannel())
	if err != nil {
		t.Fatal(err)
	}
	if height == 0 {
		t.Fatal("no blocks committed")
	}
	live, err := wc.Deliver(n.DefaultChannel(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	for want := uint64(1); want <= height; want++ {
		b, err := live.Recv()
		if err != nil {
			t.Fatalf("live remote consumer at block %d: %v", want, err)
		}
		if b.Header.Number != want {
			t.Fatalf("live remote consumer got block %d, want %d", b.Header.Number, want)
		}
	}
}

// TestWireRemotePeerCatchUp runs a seventh peer OUTSIDE the network,
// connected only through the wire transport, and has the standard deliver
// loop catch it up from block 1 — the full chain crosses the socket framed
// and checksummed, commits through the normal pipeline, and lands on
// byte-identical world state.
func TestWireRemotePeerCatchUp(t *testing.T) {
	n := newNet(t, 10, true)
	n.Start()
	defer n.Stop()
	submitAll(t, n, 30)

	// Build the late-joining peer against the SAME MSP roots but outside
	// the network's delivery plane.
	ca, err := cryptoid.NewCA("Org9")
	if err != nil {
		t.Fatal(err)
	}
	msp := n.MSP()
	msp.AddOrg("Org9", ca.PublicKey())
	signer, err := ca.Issue("Org9.peer0")
	if err != nil {
		t.Fatal(err)
	}
	late, err := peer.New(peer.Config{
		Name: "Org9.peer0", MSPID: "Org9",
		Channels:   []string{n.DefaultChannel()},
		EnableCRDT: true,
	}, signer, msp)
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	late.InstallChaincode("iot", iotCC(), endorse.MustParse(testPolicy))

	wc := serveWire(t, n)
	done := make(chan error, 1)
	stop := make(chan struct{})
	go func() {
		done <- transport.DeliverToPeer(wc, late, transport.DeliverConfig{
			ChannelID: n.DefaultChannel(),
			Backoff:   time.Millisecond,
		}, stop)
	}()

	// Wait for the late peer to reach the network height, then stop it.
	target, err := n.Peers()[0].HeightOn(n.DefaultChannel())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		h, err := late.HeightOn(n.DefaultChannel())
		if err != nil {
			t.Fatal(err)
		}
		if h >= target {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("late peer stuck at height %d, want %d", h, target)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("deliver loop: %v", err)
	}

	// Byte-identical world state with the in-network peers.
	if !reflect.DeepEqual(late.DB().GetRange("", ""), n.Peers()[0].DB().GetRange("", "")) {
		t.Fatal("late wire-synced peer diverged from the network")
	}
}
