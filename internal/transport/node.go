package transport

import (
	"fmt"
	"sync"
	"time"

	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/obs"
	"fabriccrdt/internal/peer"
)

// Broadcaster is the ordering surface a node or gateway forwards envelopes
// to — satisfied by *orderer.Service and by any Transport.
type Broadcaster interface {
	Broadcast(tx *ledger.Transaction) error
}

// Info describes a serving endpoint — the handshake metadata the wire
// transport exchanges at connection open, and what a client needs to use a
// remote peer as an endorser (identity for policy checks).
type Info struct {
	// Name is the serving node's name (a peer name like "Org1.peer0", or
	// an orderer's label).
	Name string `json:"name"`
	// MSPID is the serving peer's organization; empty for ordering nodes.
	MSPID string `json:"mspID"`
	// Channels lists the channels the node serves, default first.
	Channels []string `json:"channels"`
}

// Node is the in-process implementation of Transport: the server side of
// one process's role, assembled from the streams that role serves. A nil
// field means the stream is unsupported (ErrUnsupported) — an ordering
// node sets Histories + Broadcasts, a peer node sets Histories (its chain
// history), Endorser and Gateway.
//
// Calling a Node's methods IS the in-process transport — the same
// goroutine-and-channel plumbing fabricnet always used, now behind the
// interface the wire transport also implements, so the conformance suite
// (internal/transport/conformance) runs identically against both.
type Node struct {
	// NodeInfo is the endpoint metadata served to wire handshakes.
	NodeInfo Info
	// Histories serves Deliver: one History per channel.
	Histories map[string]*History
	// Broadcasts serves Broadcast, routed by the envelope's channel.
	Broadcasts map[string]Broadcaster
	// Endorser serves Endorse.
	Endorser interface {
		Endorse(prop peer.Proposal) (peer.ProposalResponse, error)
	}
	// Submitter serves Submit (a *Gateway in real assemblies).
	Submitter interface {
		Submit(tx *ledger.Transaction) (peer.CommitEvent, error)
	}

	mu     sync.Mutex
	closed bool
}

// Info returns the endpoint metadata.
func (n *Node) Info() Info { return n.NodeInfo }

func (n *Node) isClosed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closed
}

// Deliver opens a block stream from the channel's history.
func (n *Node) Deliver(channelID string, from uint64) (BlockStream, error) {
	callsDeliver.Inc()
	if n.isClosed() {
		return nil, ErrClosed
	}
	h, ok := n.Histories[channelID]
	if !ok {
		if n.Histories == nil {
			return nil, ErrUnsupported
		}
		return nil, Errorf("deliver", false, "unknown channel %q", channelID)
	}
	return h.Stream(from)
}

// Broadcast forwards the envelope to its channel's ordering service.
func (n *Node) Broadcast(tx *ledger.Transaction) error {
	callsBroadcast.Inc()
	if n.isClosed() {
		return ErrClosed
	}
	b, ok := n.Broadcasts[tx.ChannelID]
	if !ok {
		if n.Broadcasts == nil {
			return ErrUnsupported
		}
		return Errorf("broadcast", false, "unknown channel %q", tx.ChannelID)
	}
	return b.Broadcast(tx)
}

// Endorse simulates the proposal on the serving peer.
func (n *Node) Endorse(prop peer.Proposal) (peer.ProposalResponse, error) {
	callsEndorse.Inc()
	if n.isClosed() {
		return peer.ProposalResponse{}, ErrClosed
	}
	if n.Endorser == nil {
		return peer.ProposalResponse{}, ErrUnsupported
	}
	return n.Endorser.Endorse(prop)
}

// Submit runs the gateway lifecycle: broadcast, wait for the commit event.
func (n *Node) Submit(tx *ledger.Transaction) (peer.CommitEvent, error) {
	callsSubmit.Inc()
	if n.isClosed() {
		return peer.CommitEvent{}, ErrClosed
	}
	if n.Submitter == nil {
		return peer.CommitEvent{}, ErrUnsupported
	}
	return n.Submitter.Submit(tx)
}

// Close marks the node closed; subsequent calls fail. The histories,
// services and peers behind it belong to their creators and are not
// touched.
func (n *Node) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closed = true
	return nil
}

// Gateway is the server half of the Submit stream: it fronts one peer,
// broadcasting endorsed envelopes to the ordering service and completing
// each submission with the commit event of the peer it fronts — Fabric's
// gateway service collapsed to its essence. It runs no goroutine: each
// Submit registers its own wait with the peer (keyed by channel and
// transaction ID) before broadcasting.
type Gateway struct {
	peer    committer
	orderer Broadcaster
	timeout time.Duration
}

// committer is the peer surface a Gateway waits on — *peer.Peer.
type committer interface {
	AwaitCommit(channelID, txID string) (<-chan peer.CommitEvent, func(), error)
	Name() string
}

// NewGateway returns a gateway fronting p, broadcasting through b, failing
// submissions that see no commit event within timeout.
func NewGateway(p committer, b Broadcaster, timeout time.Duration) *Gateway {
	return &Gateway{peer: p, orderer: b, timeout: timeout}
}

// Submit broadcasts the envelope and blocks until the fronted peer commits
// it on the envelope's channel (any validation code — the code is the
// caller's answer) or the gateway timeout passes. A peer that closes first
// fails the submission retryably; a timeout is final.
func (g *Gateway) Submit(tx *ledger.Transaction) (peer.CommitEvent, error) {
	start := time.Now()
	wait, cancel, err := g.peer.AwaitCommit(tx.ChannelID, tx.ID)
	if err != nil {
		return peer.CommitEvent{}, Errorf("submit", false, "gateway %s: %v", g.peer.Name(), err)
	}
	defer cancel()
	if err := g.orderer.Broadcast(tx); err != nil {
		return peer.CommitEvent{}, fmt.Errorf("gateway %s: broadcasting %s: %w", g.peer.Name(), tx.ID, err)
	}
	timer := time.NewTimer(g.timeout)
	defer timer.Stop()
	select {
	case ev, ok := <-wait:
		if !ok {
			return peer.CommitEvent{}, Errorf("submit", true, "gateway %s: peer closed before %s committed", g.peer.Name(), tx.ID)
		}
		// Recorded on the peer's process clock, after the peer's commit
		// span (which starts at finalize entry) — so in the trace view the
		// gateway.submit span encloses the peer.commit span of its block.
		obs.Trace(tx.TraceID, "gateway.submit", start,
			"peer", g.peer.Name(), "txID", tx.ID, "channel", tx.ChannelID,
			"code", ev.Code.String())
		return ev, nil
	case <-timer.C:
		return peer.CommitEvent{}, Errorf("submit", false, "gateway %s: timed out waiting for commit of %s", g.peer.Name(), tx.ID)
	}
}
