package obs

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeValues(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("fabriccrdt_wire_frames_total", "side", "client", "dir", "in")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same (name, labels) in any key order returns the same series.
	if c2 := r.Counter("fabriccrdt_wire_frames_total", "dir", "in", "side", "client"); c2 != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := r.Gauge("fabriccrdt_peer_block_height", "peer", "p0")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	if v, ok := r.Value("fabriccrdt_peer_block_height", "peer", "p0"); !ok || v != 5 {
		t.Fatalf("Value = %v, %v; want 5, true", v, ok)
	}
	if _, ok := r.Value("fabriccrdt_peer_block_height", "peer", "other"); ok {
		t.Fatal("Value found an unregistered series")
	}
	r.Counter("fabriccrdt_wire_frames_total", "side", "server", "dir", "in").Add(10)
	if total, ok := r.Total("fabriccrdt_wire_frames_total"); !ok || total != 15 {
		t.Fatalf("Total = %v, %v; want 15, true", total, ok)
	}
}

func TestNilMetricHandlesAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil handles must read as zero")
	}
}

func TestBadNamesAndKindsPanic(t *testing.T) {
	r := NewRegistry()
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("bad prefix", func() { r.Counter("http_requests_total") })
	mustPanic("bad chars", func() { r.Counter("fabriccrdt_Bad-Name") })
	mustPanic("odd labels", func() { r.Counter("fabriccrdt_x_total", "only-key") })
	r.Counter("fabriccrdt_x_total")
	mustPanic("kind clash", func() { r.Gauge("fabriccrdt_x_total") })
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("fabriccrdt_commit_stage_seconds", "stage", "merge")
	for i := 0; i < 90; i++ {
		h.Observe(2 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(80 * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if got, want := h.Sum(), 90*2*time.Millisecond+10*80*time.Millisecond; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	if got := h.Max(); got != 80*time.Millisecond {
		t.Fatalf("max = %v, want 80ms", got)
	}
	// 2ms falls in the (1ms, 2.5ms] bucket; p50 must land there.
	if p50 := h.Quantile(0.50); p50 < time.Millisecond || p50 > 2500*time.Microsecond {
		t.Fatalf("p50 = %v, want within (1ms, 2.5ms]", p50)
	}
	// p95 crosses into the 80ms observations' (50ms, 100ms] bucket.
	if p95 := h.Quantile(0.95); p95 < 50*time.Millisecond || p95 > 100*time.Millisecond {
		t.Fatalf("p95 = %v, want within (50ms, 100ms]", p95)
	}
	if h.Quantile(1) > 100*time.Millisecond {
		t.Fatalf("p100 = %v beyond top populated bucket", h.Quantile(1))
	}
}

func TestRenderMergesAndValidates(t *testing.T) {
	a := NewRegistry()
	b := NewRegistry()
	a.Counter("fabriccrdt_wire_frames_total", "side", "client").Add(3)
	b.Counter("fabriccrdt_wire_frames_total", "side", "server").Add(4)
	a.GaugeFunc("fabriccrdt_peer_block_height", func() float64 { return 2 }, "peer", "p0")
	h := b.Histogram("fabriccrdt_commit_stage_seconds", "stage", "apply")
	h.Observe(3 * time.Millisecond)
	var buf bytes.Buffer
	if err := Render(&buf, a, b, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE fabriccrdt_wire_frames_total counter",
		`fabriccrdt_wire_frames_total{side="client"} 3`,
		`fabriccrdt_wire_frames_total{side="server"} 4`,
		`fabriccrdt_peer_block_height{peer="p0"} 2`,
		"# TYPE fabriccrdt_commit_stage_seconds histogram",
		`fabriccrdt_commit_stage_seconds_bucket{stage="apply",le="+Inf"} 1`,
		`fabriccrdt_commit_stage_seconds_count{stage="apply"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// The family typed once even though two registries contribute series.
	if strings.Count(out, "# TYPE fabriccrdt_wire_frames_total") != 1 {
		t.Fatalf("family typed more than once:\n%s", out)
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("render output fails validation: %v\n%s", err, out)
	}
}

func TestValidateExpositionRejectsMalformed(t *testing.T) {
	for _, tc := range []struct{ name, text string }{
		{"no type", "fabriccrdt_x_total 3\n"},
		{"garbage line", "# TYPE fabriccrdt_x_total counter\nfabriccrdt_x_total{ 3\n"},
		{"bad value", "# TYPE fabriccrdt_x_total counter\nfabriccrdt_x_total three\n"},
		{"double type", "# TYPE fabriccrdt_x_total counter\n# TYPE fabriccrdt_x_total gauge\n"},
	} {
		if err := ValidateExposition([]byte(tc.text)); err == nil {
			t.Errorf("%s: validation accepted malformed text", tc.name)
		}
	}
}

func TestServerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("fabriccrdt_wire_frames_total", "side", "client").Inc()
	s := NewServer(r, Default())
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr.String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/metrics"); code != 200 {
		t.Fatalf("/metrics -> %d: %s", code, body)
	} else if err := ValidateExposition([]byte(body)); err != nil {
		t.Fatalf("/metrics malformed: %v", err)
	} else if !strings.Contains(body, "fabriccrdt_wire_frames_total") {
		t.Fatalf("/metrics missing registered counter:\n%s", body)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("/healthz -> %d", code)
	}
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before SetReady -> %d, want 503", code)
	}
	s.SetReady()
	if code, _ := get("/readyz"); code != 200 {
		t.Fatalf("/readyz after SetReady -> %d", code)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline -> %d", code)
	}
}

func TestTracerChromeRoundTrip(t *testing.T) {
	tr := NewTracer("peer/p0")
	start := time.Now().Add(-5 * time.Millisecond)
	tr.Record("abc123", "peer.commit", start, "block", "7")
	tr.Record("", "dropped", start) // empty trace ID: not recorded
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	spans, err := ParseChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 {
		t.Fatalf("round-tripped %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.TraceID != "abc123" || sp.Name != "peer.commit" || sp.Process != "peer/p0" {
		t.Fatalf("bad span: %+v", sp)
	}
	if sp.Attrs["block"] != "7" {
		t.Fatalf("attrs lost: %+v", sp.Attrs)
	}
	if sp.Dur < 4*time.Millisecond {
		t.Fatalf("duration %v lost precision", sp.Dur)
	}
}

func TestGlobalTracerGating(t *testing.T) {
	SetDefaultTracer(nil)
	t.Cleanup(func() { SetDefaultTracer(nil) })
	Trace("id", "noop", time.Now()) // must not panic when disabled
	if TracingEnabled() {
		t.Fatal("tracing reported enabled with no tracer")
	}
	tr := EnableTracing("test")
	if !TracingEnabled() {
		t.Fatal("tracing reported disabled after EnableTracing")
	}
	Trace("id", "op", time.Now())
	if got := tr.Spans(); len(got) != 1 || got[0].Name != "op" {
		t.Fatalf("global span not recorded: %+v", got)
	}
	if id := NewTraceID(); len(id) != 16 {
		t.Fatalf("trace ID %q, want 16 hex chars", id)
	}
}
