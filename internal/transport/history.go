package transport

import (
	"fmt"
	"io"
	"sync"

	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/obs"
)

// History is one channel's retained block sequence plus its live tail —
// the server side of every Deliver stream. Producers append (or advance)
// exactly once per block; each consumer streams through its own cursor, so
// a slow or stuck consumer lags behind without ever applying backpressure
// to the producer or to other consumers (DESIGN.md §7: a shared log +
// cursors, no per-subscriber queues).
//
// Two backings exist:
//
//   - NewHistory(base): in-memory — Append retains every block. This is
//     a channel's block log on the ordering node (orderer.Service appends
//     to it directly, as its orderer.BlockLog); the process lifetime bounds
//     the memory.
//   - NewSourceHistory(src): backed by a ledger.BlockSource (a peer's
//     chain over its durable block store) — blocks are fetched on demand
//     and Advance publishes each newly committed height. A restarted peer
//     therefore serves its FULL history over the wire (SyncFrom's source
//     path) without holding it in memory twice.
type History struct {
	mu   sync.Mutex
	cond *sync.Cond

	// base is the number of the first block this history can serve.
	base uint64
	// next is the number the next published block will carry; blocks in
	// [base, next) are readable.
	next uint64
	// mem holds the retained blocks (mem[i] is block base+i) for the
	// in-memory backing; nil when src serves reads.
	mem []*ledger.Block
	src ledger.BlockSource

	// streams tracks open cursors so scrape-time gauges can report how
	// many consumers follow this history and how far the slowest lags.
	streams map[*historyStream]struct{}
	// label names the history (its channel ID) in queue high-water
	// warnings; set by SetLabel.
	label string

	closed bool
}

// NewHistory returns an empty in-memory history whose first block will be
// numbered base (base = checkpoint+1 on a resumed channel, 1 on a fresh
// one — the genesis block is constructed locally by every peer, never
// delivered).
func NewHistory(base uint64) *History {
	h := &History{base: base, next: base}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// NewSourceHistory returns a history serving blocks [1, src.Height()) from
// the given source — a peer's chain backed by its durable block store.
// Advance (or Append) publishes later blocks as they commit; reads always
// go through the source, which must cover every published number.
func NewSourceHistory(src ledger.BlockSource) *History {
	h := &History{base: 1, next: src.Height(), src: src}
	if h.next < 1 {
		h.next = 1
	}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// Append publishes the next block. It never blocks on consumers. The block
// must carry the next number in sequence; with a source backing, only the
// number is recorded (the source already holds the body by commit time).
func (h *History) Append(b *ledger.Block) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return ErrClosed
	}
	if b.Header.Number != h.next {
		return fmt.Errorf("transport: history append out of sequence: block %d, next is %d", b.Header.Number, h.next)
	}
	if h.src == nil {
		h.mem = append(h.mem, b)
	}
	h.next++
	h.cond.Broadcast()
	obs.WarnQueueDepth("history_lag", h.label, int(h.maxLagLocked()))
	return nil
}

// SetLabel names the history (normally its channel ID) in lag high-water
// warnings. Call before serving traffic.
func (h *History) SetLabel(label string) {
	h.mu.Lock()
	h.label = label
	h.mu.Unlock()
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

// Advance publishes every block below height+1 (source backing): after
// Advance(n), Stream consumers can read through block n. A no-op when the
// history already covers it.
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
// from a peer's source-backed history instead); opening beyond the tail is
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
// guarded by the history's mutex (Recv already holds it to wait on the
// tail).
type historyStream struct {
	h      *History
	cursor uint64
	closed bool
}

// Recv returns the block at the cursor, waiting for the tail when the
// cursor has caught up. io.EOF after the history closes and the cursor
// passes the last published block, or after Close on the stream itself.
func (s *historyStream) Recv() (*ledger.Block, error) {
	h := s.h
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		if s.closed {
			return nil, io.EOF
		}
		if s.cursor < h.next {
			var b *ledger.Block
			if h.src != nil {
				var err error
				b, err = h.src.Get(s.cursor)
				if err != nil {
					return nil, Errorf("deliver", false, "history source: block %d: %v", s.cursor, err)
				}
			} else {
				b = h.mem[s.cursor-h.base]
			}
			s.cursor++
			return b, nil
		}
		if h.closed {
			return nil, io.EOF
		}
		h.cond.Wait()
	}
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
