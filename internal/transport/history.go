package transport

import (
	"fmt"
	"io"
	"sync"

	"fabriccrdt/internal/ledger"
)

// History is one channel's block log as served to Deliver streams:
// cursors over a block store plus its live tail. Producers append (or
// advance) exactly once per block; each consumer streams through its own
// cursor, so a slow or stuck consumer lags behind without ever applying
// backpressure to the producer or to other consumers (DESIGN.md §7: a
// shared log + cursors, no per-subscriber queues).
//
// The store holds the bodies; the History only records how far it has
// published. Append writes a block through to the store and publishes it
// (the ordering node's log: orderer.Service appends to it directly, as its
// orderer.BlockLog). Advance publishes what another writer appended — a
// peer's chain, which writes the peer's store itself. Reads go to the
// store outside the History's mutex, so a reader waiting on a disk read
// never stalls Append or Advance.
type History struct {
	store ledger.BlockStore

	mu   sync.Mutex
	cond *sync.Cond

	// base is the number of the first block this history can serve.
	base uint64
	// next is the number the next published block will carry; blocks in
	// [base, next) are readable.
	next uint64

	// streams tracks open cursors so scrape-time gauges can report how
	// many consumers follow this history and how far the slowest lags.
	streams map[*historyStream]struct{}

	closed bool
}

// NewHistory returns an empty history over a fresh in-memory store whose
// first block will be numbered base. It checks only the numbering of what
// is appended.
func NewHistory(base uint64) *History {
	return newHistory(ledger.NewMemStore(base), base)
}

// NewStoreHistory returns a history serving blocks [1, store.Height())
// from store — a channel's block log, genesis at 0. The genesis block is
// constructed locally by every node, never delivered.
func NewStoreHistory(store ledger.BlockStore) *History {
	return newHistory(store, 1)
}

func newHistory(store ledger.BlockStore, base uint64) *History {
	h := &History{store: store, base: base, next: max(base, store.Height())}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// Append writes the next block to the store and publishes it. It never
// waits on consumers. The block must carry the next number in sequence.
func (h *History) Append(b *ledger.Block) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return ErrClosed
	}
	if b.Header.Number != h.next {
		return fmt.Errorf("transport: history append out of sequence: block %d, next is %d", b.Header.Number, h.next)
	}
	if err := h.store.Append(b); err != nil {
		return err
	}
	h.next++
	h.cond.Broadcast()
	return nil
}

// Streams returns the number of open cursors. Intended as a scrape-time
// gauge callback.
func (h *History) Streams() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.streams)
}

// MaxLag returns how many published blocks the slowest open cursor has
// not yet consumed — the history's analogue of a handoff-queue depth.
// Intended as a scrape-time gauge callback.
func (h *History) MaxLag() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.maxLagLocked()
}

func (h *History) maxLagLocked() uint64 {
	var max uint64
	for s := range h.streams {
		if !s.closed && s.cursor < h.next {
			if lag := h.next - s.cursor; lag > max {
				max = lag
			}
		}
	}
	return max
}

// Advance publishes every block below height+1, which another writer has
// already put in the store: after Advance(n), Stream consumers can read
// through block n. A no-op when the history already covers it.
func (h *History) Advance(height uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if height+1 > h.next {
		h.next = height + 1
		h.cond.Broadcast()
	}
}

// Height returns the number of the last published block (base-1 when
// empty).
func (h *History) Height() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.next - 1
}

// Base returns the first servable block number.
func (h *History) Base() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.base
}

// Close ends the history: every stream delivers the blocks already
// published, then returns io.EOF. Further appends fail.
func (h *History) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	h.cond.Broadcast()
}

// Stream opens a cursor at block number from. Opening below the retained
// base is an error (that history is gone — a peer that far behind syncs
// from a node whose log reaches back further); opening beyond the tail is
// fine, the stream waits for the tail to reach it.
func (h *History) Stream(from uint64) (BlockStream, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if from < h.base {
		return nil, Errorf("deliver", false, "history starts at block %d, cannot deliver from %d", h.base, from)
	}
	s := &historyStream{h: h, cursor: from}
	if h.streams == nil {
		h.streams = make(map[*historyStream]struct{})
	}
	h.streams[s] = struct{}{}
	return s, nil
}

// historyStream is one consumer's cursor into a History. Its fields are
// guarded by the history's mutex.
type historyStream struct {
	h      *History
	cursor uint64
	closed bool
}

// Recv returns the block at the cursor, waiting for the tail when the
// cursor has caught up. io.EOF after the history closes and the cursor
// passes the last published block, or after Close on the stream itself.
// The store read runs after the history's mutex is released.
func (s *historyStream) Recv() (*ledger.Block, error) {
	h := s.h
	h.mu.Lock()
	for !s.closed && s.cursor >= h.next && !h.closed {
		h.cond.Wait()
	}
	if s.closed || s.cursor >= h.next {
		h.mu.Unlock()
		return nil, io.EOF
	}
	n := s.cursor
	s.cursor++
	h.mu.Unlock()
	b, err := h.store.Get(n)
	if err != nil {
		return nil, Errorf("deliver", false, "history store: block %d: %v", n, err)
	}
	return b, nil
}

// Close releases the cursor; a blocked Recv returns io.EOF.
func (s *historyStream) Close() error {
	s.h.mu.Lock()
	s.closed = true
	delete(s.h.streams, s)
	s.h.cond.Broadcast()
	s.h.mu.Unlock()
	return nil
}
