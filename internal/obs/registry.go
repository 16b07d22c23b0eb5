// Package obs is the telemetry layer: a dependency-free metrics registry
// (atomic counters, gauges, callback metrics and bounded-bucket duration
// histograms) rendered in Prometheus text exposition format, an HTTP
// operations server (/metrics, /debug/pprof/*, /healthz, /readyz), a
// lightweight cross-process transaction tracer dumping Chrome trace-event
// JSON.
//
// The package imports nothing from the rest of the module, so every layer
// (wire, transport, orderer, peer, client, fabricnet, cmd) may instrument
// itself through it without cycles. Metric series are registered once
// (typically at construction) and then updated with atomics only — the
// hot path never takes the registry lock. Gauges that mirror live state
// (queue depths, chain heights, store sizes) are registered as callback
// metrics and evaluated at scrape time, so an unscraped process pays
// nothing for them.
//
// Every metric name must match ^fabriccrdt_[a-z0-9_]+$ and be declared in
// names.go (enforced by the metricnames analyzer in internal/lint, which
// runs under `make lint`).
package obs

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// nameRE is the contract every registered metric name must satisfy; the
// registry panics on violations because a bad name is a programming error,
// not a runtime condition.
var nameRE = regexp.MustCompile(`^fabriccrdt_[a-z0-9_]+$`)

// labelNameRE validates label names (Prometheus label identifier syntax,
// restricted to lowercase like the metric names).
var labelNameRE = regexp.MustCompile(`^[a-z_][a-z0-9_]*$`)

// kind is the exposition type of a metric family.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Counter is a monotonically increasing value. The zero method set is
// safe on a nil receiver, so optional instrumentation can stay unwired.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta; negative deltas are ignored (counters only go up).
func (c *Counter) Add(delta int64) {
	if c == nil || delta <= 0 {
		return
	}
	c.v.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the value by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// series is one (name, labels) time series.
type series struct {
	labels string // rendered `key="value",...` signature, "" for none

	ctr *Counter
	gge *Gauge
	fn  func() float64 // callback metric (counter or gauge kind)
	his *Histogram
}

// value returns the series' scalar value (histograms report their
// observation count).
func (s *series) value() float64 {
	switch {
	case s.ctr != nil:
		return float64(s.ctr.Value())
	case s.gge != nil:
		return float64(s.gge.Value())
	case s.fn != nil:
		return s.fn()
	case s.his != nil:
		return float64(s.his.Count())
	default:
		return 0
	}
}

// family is all series sharing one metric name.
type family struct {
	name   string
	kind   kind
	series map[string]*series
}

// Registry holds metric families. Registration takes the registry lock;
// updates on the returned Counter/Gauge/Histogram handles are lock-free.
// A process typically has one Default registry for process-scoped metrics
// (wire traffic, transport calls) plus one registry per long-lived
// component (a peer, a fabricnet network) so tests and multi-peer
// processes keep their series apart; Render merges any set of registries
// into one exposition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// defaultRegistry is the process-global registry (see Default).
var defaultRegistry = NewRegistry()

// Default returns the process-global registry, home of process-scoped
// metrics like wire frame counters.
func Default() *Registry { return defaultRegistry }

// labelSignature renders variadic "key", "value" pairs into the canonical
// sorted `key="value"` list used as the series key and in the exposition.
func labelSignature(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q (want key, value pairs)", labels))
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		if !labelNameRE.MatchString(labels[i]) {
			panic(fmt.Sprintf("obs: invalid label name %q", labels[i]))
		}
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue escapes a label value per the exposition format.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// register returns the series for (name, labels), creating family and
// series as needed. Existing series are returned as-is except callback
// metrics, whose function is replaced (so a recreated component re-binds
// the gauge to its live instance).
func (r *Registry) register(name string, k kind, labels []string) *series {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: metric name %q does not match %s", name, nameRE))
	}
	sig := labelSignature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, kind: k, series: make(map[string]*series)}
		r.families[name] = f
	} else if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, k))
	}
	s := f.series[sig]
	if s == nil {
		s = &series{labels: sig}
		f.series[sig] = s
	}
	return s
}

// Counter registers (or returns the existing) counter series.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	s := r.register(name, kindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.ctr == nil {
		if s.fn != nil || s.gge != nil || s.his != nil {
			panic(fmt.Sprintf("obs: series %s{%s} already registered with a different shape", name, s.labels))
		}
		s.ctr = &Counter{}
	}
	return s.ctr
}

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	s := r.register(name, kindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.gge == nil {
		if s.fn != nil || s.ctr != nil || s.his != nil {
			panic(fmt.Sprintf("obs: series %s{%s} already registered with a different shape", name, s.labels))
		}
		s.gge = &Gauge{}
	}
	return s.gge
}

// GaugeFunc registers a gauge series whose value is computed by fn at
// scrape time — the idiom for live state (queue depths, heights, store
// sizes): the instrumented hot path pays nothing. Re-registering the same
// series replaces the callback, so a recreated component re-binds it.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...string) {
	s := r.register(name, kindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.ctr != nil || s.gge != nil || s.his != nil {
		panic(fmt.Sprintf("obs: series %s{%s} already registered with a different shape", name, s.labels))
	}
	s.fn = fn
}

// CounterFunc registers a counter series computed by fn at scrape time —
// for mirroring an existing monotonic count without double bookkeeping.
// Like GaugeFunc, re-registration replaces the callback.
func (r *Registry) CounterFunc(name string, fn func() float64, labels ...string) {
	s := r.register(name, kindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.ctr != nil || s.gge != nil || s.his != nil {
		panic(fmt.Sprintf("obs: series %s{%s} already registered with a different shape", name, s.labels))
	}
	s.fn = fn
}

// Histogram registers (or returns the existing) duration histogram series
// over the default exponential bucket bounds.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	s := r.register(name, kindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.his == nil {
		if s.fn != nil || s.ctr != nil || s.gge != nil {
			panic(fmt.Sprintf("obs: series %s{%s} already registered with a different shape", name, s.labels))
		}
		s.his = newHistogram()
	}
	return s.his
}

// Value returns the current value of one series, reported with the exact
// label set it was registered under. Histogram series report their
// observation count. The second result is false for unknown series.
func (r *Registry) Value(name string, labels ...string) (float64, bool) {
	sig := labelSignature(labels)
	r.mu.Lock()
	f := r.families[name]
	var s *series
	if f != nil {
		s = f.series[sig]
	}
	r.mu.Unlock()
	if s == nil {
		return 0, false
	}
	return s.value(), true
}

// Total sums all series of a family — the whole-process view of a counter
// sharded by labels. False when the family is unknown.
func (r *Registry) Total(name string) (float64, bool) {
	r.mu.Lock()
	f := r.families[name]
	var ss []*series
	if f != nil {
		for _, s := range f.series {
			ss = append(ss, s)
		}
	}
	r.mu.Unlock()
	if f == nil {
		return 0, false
	}
	var sum float64
	for _, s := range ss {
		sum += s.value()
	}
	return sum, true
}

// histBounds are the shared histogram bucket upper bounds in seconds:
// 1µs to 10s in a 1-2.5-5 decade ladder, wide enough for sub-microsecond
// dedup stages and multi-second end-to-end latencies alike. A +Inf bucket
// is implicit.
var histBounds = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5,
	1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket duration histogram: atomic per-bucket
// counts plus sum/count/max, observable concurrently without locks.
// Quantiles are estimated by linear interpolation inside the bucket that
// crosses the requested rank — exact enough for p50/p95/p99 dashboards at
// 22 buckets per decade ladder.
type Histogram struct {
	counts   []atomic.Int64 // len(histBounds)+1; last is +Inf
	count    atomic.Int64
	sumNanos atomic.Int64
	maxNanos atomic.Int64
}

func newHistogram() *Histogram {
	return &Histogram{counts: make([]atomic.Int64, len(histBounds)+1)}
}

// Observe records one duration. Nil-safe.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	sec := d.Seconds()
	i := sort.SearchFloat64s(histBounds, sec)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
	for {
		old := h.maxNanos.Load()
		if int64(d) <= old || h.maxNanos.CompareAndSwap(old, int64(d)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observed durations.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sumNanos.Load())
}

// Max returns the largest observed duration.
func (h *Histogram) Max() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.maxNanos.Load())
}

// Quantile estimates the q-quantile (0 < q <= 1) of the observed
// distribution, interpolating linearly within the crossing bucket. The
// top (+Inf) bucket reports the observed max. Zero observations report 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			if i == len(histBounds) {
				return h.Max()
			}
			lo := 0.0
			if i > 0 {
				lo = histBounds[i-1]
			}
			hi := histBounds[i]
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return time.Duration((lo + (hi-lo)*frac) * float64(time.Second))
		}
		cum += n
	}
	return h.Max()
}
