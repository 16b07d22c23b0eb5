package fabricnet

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/peer"
	"fabriccrdt/internal/transport"
)

// countingPeer wraps a peer and counts the commit waits registered through
// it and not yet cancelled.
type countingPeer struct {
	*peer.Peer
	open atomic.Int64
}

func (c *countingPeer) AwaitCommit(channelID, txID string) (<-chan peer.CommitEvent, func(), error) {
	wait, cancel, err := c.Peer.AwaitCommit(channelID, txID)
	if err != nil {
		return nil, nil, err
	}
	c.open.Add(1)
	var once sync.Once
	return wait, func() {
		once.Do(func() { c.open.Add(-1) })
		cancel()
	}, nil
}

// broadcastFunc adapts a function to transport.Broadcaster.
type broadcastFunc func(tx *ledger.Transaction) error

func (f broadcastFunc) Broadcast(tx *ledger.Transaction) error { return f(tx) }

// dropAll accepts every envelope and orders none of them.
var dropAll = broadcastFunc(func(*ledger.Transaction) error { return nil })

// anchorOf returns the organization's anchor peer wrapped for counting.
func anchorOf(t *testing.T, n *Network, org string) *countingPeer {
	t.Helper()
	p, err := n.AnchorPeer(org)
	if err != nil {
		t.Fatal(err)
	}
	return &countingPeer{Peer: p}
}

// prepareOn endorses one IoT reading on a channel through a fresh Org1
// client.
func prepareOn(t *testing.T, n *Network, channelID, name string) *ledger.Transaction {
	t.Helper()
	c, err := n.NewClientOn(channelID, "Org1", name, []string{"Org1"})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := c.Prepare("iot", []byte("record"), []byte("dev1"), []byte("21"))
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

// TestGatewayResolvesCodeBlockAndChannel: a gateway submission returns the
// fronted peer's outcome — the transaction's code, the block that carries
// it and the channel it committed on — and leaves no wait behind.
func TestGatewayResolvesCodeBlockAndChannel(t *testing.T) {
	n := newMultiNet(t, 10, peer.CommitterConfig{}, "ch1", "ch2")
	n.Start()
	defer n.Stop()
	anchor := anchorOf(t, n, "Org1")
	gw := transport.NewGateway(anchor, n.Node(), 10*time.Second)
	tx := prepareOn(t, n, "ch2", "gw-client")
	ev, err := gw.Submit(tx)
	if err != nil {
		t.Fatal(err)
	}
	if ev.TxID != tx.ID || ev.ChannelID != "ch2" || ev.Code != ledger.CodeCRDTMerged {
		t.Fatalf("event = %+v, want %s CRDT_MERGED on ch2", ev, tx.ID)
	}
	chain, err := anchor.ChainOn("ch2")
	if err != nil {
		t.Fatal(err)
	}
	block, err := chain.Get(ev.BlockNum)
	if err != nil {
		t.Fatal(err)
	}
	if len(block.Transactions) == 0 || block.Transactions[0].ID != tx.ID {
		t.Fatalf("block %d does not carry %s", ev.BlockNum, tx.ID)
	}
	if open := anchor.open.Load(); open != 0 {
		t.Fatalf("%d waits left behind", open)
	}
}

// TestGatewayTimeoutIsFinal: a submission whose transaction never commits
// fails with a non-retryable error at the timeout and withdraws its wait.
func TestGatewayTimeoutIsFinal(t *testing.T) {
	n := newNet(t, 10, true)
	anchor := anchorOf(t, n, "Org1")
	gw := transport.NewGateway(anchor, dropAll, 50*time.Millisecond)
	_, err := gw.Submit(&ledger.Transaction{ID: "t1", ChannelID: n.DefaultChannel()})
	var te *transport.Error
	if !errors.As(err, &te) || transport.Retryable(err) {
		t.Fatalf("err = %v, want a non-retryable transport error", err)
	}
	if open := anchor.open.Load(); open != 0 {
		t.Fatalf("%d waits left behind", open)
	}
}

// TestGatewayBroadcastErrorReleasesWait: a refused broadcast surfaces the
// orderer's error and withdraws the wait registered for it.
func TestGatewayBroadcastErrorReleasesWait(t *testing.T) {
	n := newNet(t, 10, true)
	anchor := anchorOf(t, n, "Org1")
	down := errors.New("orderer down")
	gw := transport.NewGateway(anchor, broadcastFunc(func(*ledger.Transaction) error { return down }), time.Minute)
	if _, err := gw.Submit(&ledger.Transaction{ID: "t1", ChannelID: n.DefaultChannel()}); !errors.Is(err, down) {
		t.Fatalf("err = %v, want the broadcast error", err)
	}
	if open := anchor.open.Load(); open != 0 {
		t.Fatalf("%d waits left behind", open)
	}
}

// TestGatewayPeerCloseIsRetryable: closing the fronted peer releases a
// pending submission at once with a retryable error.
func TestGatewayPeerCloseIsRetryable(t *testing.T) {
	n := newNet(t, 10, true)
	anchor := anchorOf(t, n, "Org1")
	gw := transport.NewGateway(anchor, dropAll, time.Minute)
	done := make(chan error, 1)
	go func() {
		_, err := gw.Submit(&ledger.Transaction{ID: "t1", ChannelID: n.DefaultChannel()})
		done <- err
	}()
	for anchor.open.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := anchor.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !transport.Retryable(err) {
			t.Fatalf("err = %v, want retryable", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("submission still pending after the peer closed")
	}
}

// TestGatewaySameTxIDOnTwoChannels: the same transaction ID on two
// channels is two transactions, so concurrent submissions through one
// gateway each return their own channel's outcome — the valid ch1
// transaction commits, the ch2 envelope (its signatures cover another ID)
// is rejected — well within the timeout.
func TestGatewaySameTxIDOnTwoChannels(t *testing.T) {
	n := newMultiNet(t, 10, peer.CommitterConfig{}, "ch1", "ch2")
	n.Start()
	defer n.Stop()
	anchor, err := n.AnchorPeer("Org1")
	if err != nil {
		t.Fatal(err)
	}
	gw := transport.NewGateway(anchor, n.Node(), 10*time.Second)
	tx1 := prepareOn(t, n, "ch1", "same-id-1")
	tx2 := prepareOn(t, n, "ch2", "same-id-2")
	tx2.ID = tx1.ID

	events := make([]peer.CommitEvent, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, tx := range []*ledger.Transaction{tx1, tx2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			events[i], errs[i] = gw.Submit(tx)
		}()
	}
	wg.Wait()
	for i, want := range []struct {
		channel string
		code    ledger.ValidationCode
	}{{"ch1", ledger.CodeCRDTMerged}, {"ch2", ledger.CodeBadSignature}} {
		if errs[i] != nil {
			t.Fatalf("%s submit: %v", want.channel, errs[i])
		}
		if ev := events[i]; ev.TxID != tx1.ID || ev.ChannelID != want.channel || ev.Code != want.code {
			t.Fatalf("%s submit returned %+v, want code %v on %s", want.channel, ev, want.code, want.channel)
		}
	}
}

// TestClientsAddNoPeerWork: a client registers a wait with its anchor peer
// only while a submission is in flight, so creating many clients leaves no
// goroutine behind, and a submission still commits.
func TestClientsAddNoPeerWork(t *testing.T) {
	n := newNet(t, 10, true)
	n.Start()
	defer n.Stop()
	c, err := n.NewClient("Org1", "active", []string{"Org1"})
	if err != nil {
		t.Fatal(err)
	}
	submit := func() {
		t.Helper()
		code, err := c.SubmitAndWait(10*time.Second, "iot", []byte("record"), []byte("dev1"), []byte("21"))
		if err != nil || !code.Committed() {
			t.Fatalf("code = %v, err = %v", code, err)
		}
	}
	submit() // every deliver loop and pipeline stage is running from here on
	base := runtime.NumGoroutine()
	const clients = 200
	for i := 0; i < clients; i++ {
		if _, err := n.NewClient("Org1", fmt.Sprintf("idle-%d", i), []string{"Org1"}); err != nil {
			t.Fatal(err)
		}
	}
	if grew := runtime.NumGoroutine() - base; grew > 10 {
		t.Fatalf("%d clients added %d goroutines", clients, grew)
	}
	submit()
}
