// Package transport abstracts the four streams every FabricCRDT network is
// built from — Deliver (orderer → peer block stream), Broadcast (client →
// orderer transaction submission), Endorse (client → peer proposal
// simulation) and Submit (client → gateway full-lifecycle submission) —
// behind one interface with two implementations: the in-process Node (the
// goroutine-and-channel plumbing fabricnet always had, now behind the
// interface) and the framed-TCP wire transport (internal/wire), so orderer,
// peer and gateway can run as separate OS processes (the Fabric
// architecture's deliver/broadcast service split, Androulaki et al.).
//
// The package also carries the pieces both implementations share:
//
//   - History (history.go): one channel's retained block sequence plus live
//     tail — the block log the ordering service appends to and the server
//     side of every Deliver stream, giving each consumer an unbounded
//     cursor instead of a bounded queue (the orderer fan-out deadlock of
//     DESIGN.md §7 is structurally impossible here).
//   - Gateway (node.go): the Submit server half — register a commit wait
//     with the local peer, broadcast the endorsed envelope, return the
//     transaction's commit event.
//   - Chaos (chaos.go): fault-injecting middleware wrapping any Transport —
//     delayed, duplicated, dropped, reordered and tampered blocks plus
//     mid-stream disconnects — used by the conformance suite and the
//     fault-injection integration tests.
//   - DeliverToPeer (deliver.go): the committer-side deliver loop — resume
//     at height+1, detect gaps, reconnect with exponential backoff on
//     retryable transport errors, die on fatal commit errors.
//
// Error discipline: everything the medium can heal — a severed connection,
// a lost frame, a sequence gap — is wrapped retryable (Retryable reports
// it) and makes deliver loops reconnect; everything the application decided
// — an endorsement rejection, a hash-chain violation, a commit failure — is
// fatal and must surface to the caller.
package transport

import (
	"errors"
	"fmt"

	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/peer"
)

// Transport is the four-stream surface between FabricCRDT roles. A given
// endpoint implements the streams its role serves — an ordering node
// serves Deliver and Broadcast, a peer node serves Deliver (its committed
// history), Endorse and Submit — and returns ErrUnsupported for the rest.
//
// Implementations must be safe for concurrent use: clients endorse, submit
// and consume deliver streams from many goroutines at once.
type Transport interface {
	// Deliver opens one channel's block stream starting at block number
	// from (blocks numbered >= from, in order, no gaps). The stream follows
	// the live tail; Recv returns io.EOF only when the serving side shuts
	// down cleanly. Delivery is at-least-once across reconnects: a consumer
	// re-opening at from <= its height sees committed history again and is
	// expected to fast-forward it (peer.CommitBlockOn does). Open failures
	// (unknown channel, from below the retained base) may surface here or
	// on the stream's FIRST Recv — a streaming transport only learns them
	// a round-trip later; consumers must treat both the same.
	Deliver(channelID string, from uint64) (BlockStream, error)

	// Broadcast submits one endorsed transaction envelope for ordering on
	// the channel the envelope names. It returns once the envelope is
	// accepted into the total order — not when it commits.
	Broadcast(tx *ledger.Transaction) error

	// Endorse simulates a proposal on the serving peer and returns its
	// signed read/write set (the execution phase).
	Endorse(prop peer.Proposal) (peer.ProposalResponse, error)

	// Submit hands an endorsed envelope to a gateway, which broadcasts it
	// and waits for the commit event of the peer it fronts — the full
	// submit-and-wait lifecycle as one request/response exchange.
	Submit(tx *ledger.Transaction) (peer.CommitEvent, error)

	// Close releases the transport. In-flight and subsequent calls fail.
	Close() error
}

// BlockStream is one open Deliver stream.
type BlockStream interface {
	// Recv blocks until the next block is available. It returns io.EOF on
	// clean shutdown of the serving side, a retryable *Error when the
	// medium failed mid-stream (sequence gap, severed connection), and any
	// other error for protocol violations.
	Recv() (*ledger.Block, error)
	// Close releases the stream; a blocked Recv returns.
	Close() error
}

// Transport-level sentinel errors.
var (
	// ErrUnsupported reports a stream the serving endpoint does not
	// implement (e.g. Endorse on an ordering node). Never retryable.
	ErrUnsupported = errors.New("transport: stream not supported by this endpoint")
	// ErrClosed reports use of a transport after Close.
	ErrClosed = errors.New("transport: closed")
)

// Error is a transport-layer failure. Retryable failures are the medium's
// fault (connection severed, frame lost, sequence gap) and heal by
// reconnecting; non-retryable ones are protocol or application decisions
// that reconnecting cannot change.
type Error struct {
	// Op names the failing operation ("deliver", "broadcast", ...).
	Op string
	// Retryable reports whether reconnecting may succeed.
	Retryable bool
	// Err is the cause.
	Err error
}

// Error formats the failure.
func (e *Error) Error() string {
	kind := "fatal"
	if e.Retryable {
		kind = "retryable"
	}
	return fmt.Sprintf("transport: %s (%s): %v", e.Op, kind, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// Errorf builds a transport Error.
func Errorf(op string, retryable bool, format string, args ...any) *Error {
	return &Error{Op: op, Retryable: retryable, Err: fmt.Errorf(format, args...)}
}

// Retryable reports whether err is a transport error that reconnecting may
// heal. Commit errors, endorsement rejections and ErrUnsupported are never
// retryable; severed connections, lost frames and sequence gaps are.
func Retryable(err error) bool {
	var te *Error
	return errors.As(err, &te) && te.Retryable
}
