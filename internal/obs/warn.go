package obs

import (
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// Queue high-water warnings: the one unbounded handoff queue family left,
// History cursors, trades backpressure for isolation — a stuck consumer
// must not stall the producer — which means a stuck consumer's lag grows
// silently. Push paths report their depth here; past the high-water mark
// one structured slog warning per (queue, label) is emitted per
// warnEvery, so a wedged consumer is named in the log without flooding
// it.

// warnEvery rate-limits repeated warnings for the same queue.
const warnEvery = 10 * time.Second

// DefaultQueueWarnDepth is the initial high-water mark.
const DefaultQueueWarnDepth = 4096

var queueWarnDepth atomic.Int64

func init() { queueWarnDepth.Store(DefaultQueueWarnDepth) }

// SetQueueWarnDepth sets the high-water mark above which WarnQueueDepth
// logs; zero or negative disables the warnings.
func SetQueueWarnDepth(n int) { queueWarnDepth.Store(int64(n)) }

// QueueWarnDepth returns the current high-water mark.
func QueueWarnDepth() int { return int(queueWarnDepth.Load()) }

var (
	warnMu   sync.Mutex
	warnLast map[string]time.Time
)

// WarnQueueDepth reports the current depth of an unbounded handoff queue.
// Below the high-water mark it is one atomic load and a compare — cheap
// enough for every push. Above it, it emits a rate-limited slog warning.
func WarnQueueDepth(queue, label string, depth int) {
	hw := queueWarnDepth.Load()
	if hw <= 0 || int64(depth) <= hw {
		return
	}
	key := queue + "\x00" + label
	now := time.Now()
	warnMu.Lock()
	if warnLast == nil {
		warnLast = make(map[string]time.Time)
	}
	last, seen := warnLast[key]
	if seen && now.Sub(last) < warnEvery {
		warnMu.Unlock()
		return
	}
	warnLast[key] = now
	warnMu.Unlock()
	slog.Warn("handoff queue over high-water mark",
		"queue", queue, "label", label, "depth", depth, "highWater", hw)
}
