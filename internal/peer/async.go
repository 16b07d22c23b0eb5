package peer

import (
	"errors"
	"sync/atomic"
	"time"

	"fabriccrdt/internal/ledger"
)

// CommitPipeline drives one channel's deliver stream through the peer's
// two-stage commit pipeline until the stream closes, and returns the first
// commit error (nil on a clean run). It is the committer loop fabricnet
// runs per (peer, channel) pair; tests and embedders can feed it any
// ordered block channel.
//
// The two stages run in separate goroutines connected by a one-block
// queue: while block N is in the serialized finalize stage
// (dedup/merge/mvcc/apply/append), block N+1 is decoded and
// endorsement-validated ahead of it. The prepare stage reads no world
// state and finalize consumes prepared blocks strictly in delivery order,
// so commit outcomes — validation codes, world state, hash chain — are
// byte-identical to a plain CommitBlockOn loop (proven by
// TestCommitPipelineMatchesCommitBlockOn under -race). Each successfully
// overlapped block records a StageOverlap observation: the share of its
// prepare time hidden behind earlier finalize work.
//
// Error handling: the first failure (prepare or finalize) poisons the
// pipeline — every subsequent block is received and DISCARDED until the
// deliver channel closes. Draining is load-bearing, not cosmetic: an
// abandoned subscription must never apply permanent backpressure to the
// block source (the regression behind DESIGN.md §7's deadlock
// post-mortem). Blocks after a failure are undeliverable anyway: the hash
// chain rejects a block whose predecessor never committed.
func (p *Peer) CommitPipeline(channelID string, deliver <-chan *ledger.Block) error {
	cm := p.channelMetricsFor(channelID)
	prepared := make(chan *PreparedBlock, 1)
	var failed atomic.Bool
	var finalizeErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		// dead is the finalizer's OWN failure, distinct from the shared
		// flag: a prepare-stage failure on block N must not make the
		// finalizer discard blocks 1..N-1 already sitting in the queue —
		// they are valid predecessors the synchronous path would commit,
		// and dropping them would break depth-determinism (the committed
		// height, and with a durable backend the restart-resume point,
		// would depend on the depth and on scheduling).
		var dead bool
		for {
			//lint:ignore determinism stall timing only; durations feed metrics, never committed state
			idle := time.Now()
			prep, ok := <-prepared
			if !ok {
				return
			}
			stalled := time.Since(idle)
			if dead {
				continue
			}
			// The part of this block's prepare the finalizer did NOT
			// have to wait for ran hidden behind earlier blocks' commit
			// work — the pipelining payoff, visible in CommitTimings.
			if hidden := prep.prepDur - stalled; hidden > 0 {
				cm.observe(StageOverlap, hidden)
			}
			if _, err := p.FinalizeBlockOn(prep); err != nil {
				finalizeErr = err
				dead = true
				failed.Store(true)
			}
		}
	}()

	var prepareErr error
	for block := range deliver {
		if failed.Load() {
			continue // drain
		}
		prep, err := p.PrepareBlockOn(channelID, block)
		if err != nil {
			prepareErr = err
			failed.Store(true)
			continue
		}
		prepared <- prep
	}
	close(prepared)
	<-done
	return errors.Join(prepareErr, finalizeErr)
}
