package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"fabriccrdt/internal/obs"
)

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, // 9.5 samples beyond the median: not even p50
		{20, 50, true},
		{100, 90, true},  // p95 would leave 5 beyond
		{199, 90, true},  // p95 would leave 9.95 beyond
		{200, 95, true},  // exactly 10 beyond p95
		{800, 95, true},  // the smallest paced phase: p99 would leave 8
		{1000, 99, true}, // exactly 10 beyond p99
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := highestPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for rank, want := range map[float64]float64{50: 5, 90: 9, 95: 10, 99: 10, 10: 1, 0: 1} {
		if got := percentile(s, rank); got != want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", rank, got, want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

// The contract defines spread with Python's statistics.quantiles(v, n=4);
// the expected values below are its output.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		vals   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 38},
		{[]float64{3, 1}, 0.5, 3.5}, // two points: the method extrapolates
		{[]float64{5.5, 1.25, 9, 4}, 1.9375, 8.125},
	} {
		q1, q3 := quartiles(tc.vals)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.vals, q1, q3, tc.q1, tc.q3)
		}
	}
	if q1, _ := quartiles([]float64{7}); !math.IsNaN(q1) {
		t.Error("one value has no quartiles")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// A transaction the generator starts late is timed from when it was due:
// the stall is charged to it, and shows up as generator lag.
func TestDueTimeLatencyWhenGeneratorRunsLate(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	var samples []txSample
	// 30 on time: due = sent, committed 20 ms later.
	for i := 0; i < 30; i++ {
		samples = append(samples, txSample{due: at(i * 10), sent: at(i * 10), committed: at(i*10 + 20), ok: true})
	}
	// 10 behind a 50 ms generator stall: sent 50 ms late, still 20 ms of
	// service each — 70 ms from due time, not 20.
	for i := 30; i < 40; i++ {
		samples = append(samples, txSample{due: at(i * 10), sent: at(i*10 + 50), committed: at(i*10 + 70), ok: true})
	}
	// One failure: it has a lag but no latency.
	samples = append(samples, txSample{due: at(400), sent: at(400), committed: at(30400), ok: false})

	sum := summarizeLatency(samples)
	if sum.samples != 40 {
		t.Fatalf("samples = %d, want 40 (the failed submission has no latency)", sum.samples)
	}
	if sum.p50 != 20 {
		t.Errorf("p50 = %v ms, want 20", sum.p50)
	}
	if sum.p95 != 70 {
		t.Errorf("p95 = %v ms, want 70: late sends are timed from their due time", sum.p95)
	}
	if sum.lagP95 != 50 {
		t.Errorf("generator lag p95 = %v ms, want 50", sum.lagP95)
	}
	if sum.tailRank != 50 || sum.tail != 20 {
		t.Errorf("tail = p%v %v ms; 40 samples support only the median", sum.tailRank, sum.tail)
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	iv := func(a, b int) interval {
		return interval{t0.Add(time.Duration(a) * time.Millisecond), t0.Add(time.Duration(b) * time.Millisecond)}
	}
	for _, tc := range []struct {
		name     string
		parent   interval
		children []interval
		want     time.Duration
	}{
		{"no children", iv(0, 100), nil, 100 * time.Millisecond},
		{"one child", iv(0, 100), []interval{iv(10, 40)}, 70 * time.Millisecond},
		{"overlapping children count once", iv(0, 100), []interval{iv(10, 50), iv(30, 60)}, 50 * time.Millisecond},
		{"child clipped to the parent", iv(0, 100), []interval{iv(-20, 10), iv(90, 150)}, 80 * time.Millisecond},
		{"child outside the parent", iv(0, 100), []interval{iv(200, 300)}, 100 * time.Millisecond},
		{"unsorted, nested", iv(0, 100), []interval{iv(50, 60), iv(0, 100), iv(5, 10)}, 0},
	} {
		if got := selfTime(tc.parent, tc.children...); got != tc.want {
			t.Errorf("%s: selfTime = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// chromeTrace renders one process's trace file in the program's -trace-out
// format: spans are (trace, name, start ms, duration ms) relative to base.
func chromeTrace(process string, baseUS float64, spans [][4]any) []byte {
	events := []map[string]any{{"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "args": map[string]string{"name": process}}}
	for _, s := range spans {
		events = append(events, map[string]any{
			"name": s[1], "cat": s[0], "ph": "X", "pid": 1, "tid": 1,
			"ts": baseUS + float64(s[2].(int))*1e3, "dur": float64(s[3].(int)) * 1e3,
			"args": map[string]string{"trace": s[0].(string), "process": process},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		panic(err)
	}
	return data
}

// A synthetic three-process trace: driver, gateway peer (plus a second
// committing peer) and orderer, written and parsed in the program's own
// Chrome-trace format, joined on trace ID.
func TestJoinTracesThreeProcesses(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	baseUS := float64(base.UnixNano()) / 1e3
	at := func(msec int) time.Time { return base.Add(time.Duration(msec) * time.Millisecond) }

	files := [][]byte{
		chromeTrace("driver", baseUS, [][4]any{
			{"aa", spanPrepare, 2, 6}, // 2..8
			{"bb", spanPrepare, 0, 5},
		}),
		chromeTrace("Org1.peer0", baseUS, [][4]any{
			{"aa", spanEndorse, 3, 2},  // 3..5, inside client.prepare
			{"aa", spanGateway, 9, 60}, // 9..69
			{"aa", spanCommit, 50, 15}, // 50..65
			{"bb", spanEndorse, 1, 2},
		}),
		chromeTrace("Org2.peer0", baseUS, [][4]any{
			{"aa", spanCommit, 48, 30}, // the other peer's commit: not the gateway's
		}),
		chromeTrace("orderer", baseUS, [][4]any{
			{"aa", spanOrder, 10, 30}, // 10..40
		}),
	}
	var spans []obs.Span
	for _, f := range files {
		parsed, err := obs.ParseChromeTrace(f)
		if err != nil {
			t.Fatal(err)
		}
		spans = append(spans, parsed...)
	}
	driver := map[string]driverSpan{
		"aa": {due: at(0), committed: at(72)},
		"bb": {due: at(0), committed: at(50)}, // never ordered: incomplete
		"cc": {due: at(0), committed: at(50)}, // no spans at all
	}
	rows, incomplete := joinTraces(spans, driver)
	if incomplete != 2 || len(rows) != 1 {
		t.Fatalf("joined %d traces, %d incomplete; want 1 and 2", len(rows), incomplete)
	}
	want := txBreakdown{
		total:       72 * time.Millisecond,
		prepareSelf: 4 * time.Millisecond, // 6 − the 2 ms endorsement inside it
		endorse:     2 * time.Millisecond,
		order:       30 * time.Millisecond,
		deliver:     10 * time.Millisecond, // order ends at 40, the gateway peer's commit starts at 50
		commit:      15 * time.Millisecond,
		gatewaySelf: 5 * time.Millisecond, // 60 − (30 + 10 + 15): 9..10 before ordering, 65..69 after commit
		unaccounted: 6 * time.Millisecond, // 0..2 before prepare, 8..9, 69..72
	}
	if rows[0] != want {
		t.Errorf("breakdown = %+v\nwant        %+v", rows[0], want)
	}
	sum := want.prepareSelf + want.endorse + want.order + want.deliver + want.commit + want.gatewaySelf + want.unaccounted
	if sum != want.total {
		t.Errorf("parts sum to %v, total is %v", sum, want.total)
	}
}

func TestExpositionDeltas(t *testing.T) {
	family := obs.MetricCommitStageSeconds
	frames := obs.MetricWireFrames
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	render := func(merge, mvcc, in, out float64) []byte {
		var b strings.Builder
		b.WriteString("# TYPE " + family + " histogram\n")
		for _, st := range []struct {
			stage string
			sum   float64
		}{{"merge", merge}, {"mvcc", mvcc}} {
			labels := `{channel="ch1",peer="Org1.peer0",stage="` + st.stage + `"`
			b.WriteString(family + "_bucket" + labels + `,le="+Inf"} 7` + "\n")
			b.WriteString(family + "_sum" + labels + "} " + num(st.sum) + "\n")
			b.WriteString(family + "_count" + labels + "} 7\n")
		}
		b.WriteString("# TYPE " + frames + " counter\n")
		b.WriteString(frames + `{dir="in",side="server"} ` + num(in) + "\n")
		b.WriteString(frames + `{dir="out",side="server"} ` + num(out) + "\n")
		b.WriteString(frames + `{dir="out",side="client"} 1000` + "\n")
		return []byte(b.String())
	}
	bodyA, bodyB := render(1.5, 0.25, 100, 200), render(4.0, 0.75, 160, 300)
	for _, body := range [][]byte{bodyA, bodyB} {
		if err := obs.ValidateExposition(body); err != nil {
			t.Fatalf("test exposition is malformed: %v\n%s", err, body)
		}
	}
	before, err := parseExposition(bodyA)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseExposition(bodyB)
	if err != nil {
		t.Fatal(err)
	}
	if got := delta(before, after, family+"_sum", label("stage", "merge")); got != 2.5 {
		t.Errorf("merge stage seconds delta = %v, want 2.5", got)
	}
	if got := delta(before, after, family+"_sum"); got != 3.0 {
		t.Errorf("all-stage seconds delta = %v, want 3 (the family name must match exactly, not _bucket or _count)", got)
	}
	if got := delta(before, after, frames, label("side", "server")); got != 160 {
		t.Errorf("server frames delta = %v, want 160 (in +60, out +100; client side excluded)", got)
	}
	if got := delta(before, after, "no_such_family"); got != 0 {
		t.Errorf("absent family delta = %v, want 0", got)
	}
}

func TestParseStatCPU(t *testing.T) {
	// utime=250 stime=50 ticks; the command name holds spaces and a ')'.
	stat := "4242 (fabric net) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 50 0 0 20 0 9 0 12345 1000000 500 18446744073709551615"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 300 * clockTick; got != want {
		t.Errorf("CPU = %v, want %v", got, want)
	}
	if _, err := parseStatCPU("garbage"); err == nil {
		t.Error("a malformed stat line must be an error")
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "commit_latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "commit_tps", Unit: "tx/s", Better: "higher", Bound: 0.10}
	failed := metricDef{Name: failedShare, Unit: "ratio", Better: "lower"}
	setup := metricDef{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Slack: 0.5}
	steady := func(center float64) []float64 { // spread 2%
		return []float64{center * 0.99, center, center * 1.01, center, center * 0.99, center * 1.01}
	}
	noisy := func(center float64) []float64 { // spread well over 10%
		return []float64{center * 0.8, center * 1.2, center * 0.85, center * 1.15, center, center}
	}
	for _, tc := range []struct {
		name       string
		def        metricDef
		base, cand []float64
		want       string
	}{
		{"unchanged", lower, steady(100), steady(100), verdictOK},
		{"worse within the bound", lower, steady(100), steady(108), verdictOK},
		{"lower-is-better regression", lower, steady(100), steady(112), verdictRegression},
		{"lower-is-better improvement", lower, steady(100), steady(60), verdictOK},
		{"higher-is-better regression", higher, steady(1000), steady(880), verdictRegression},
		{"higher-is-better improvement", higher, steady(1000), steady(1500), verdictOK},
		{"noisy baseline cannot resolve the bound", lower, noisy(100), steady(100), verdictUnresolved},
		{"noisy candidate hides a regression too", lower, steady(100), noisy(130), verdictUnresolved},
		{"single runs have no spread to judge", lower, []float64{100}, []float64{105}, verdictOK},
		{"failed share rising at all", failed, []float64{0, 0, 0}, []float64{0, 0.001, 0.001}, verdictRegression},
		{"failed share staying zero", failed, []float64{0, 0, 0}, []float64{0, 0, 0}, verdictOK},
		{"metric missing from one set", lower, steady(100), nil, verdictMissing},
		{"set-up doubling inside its absolute slack", setup, steady(0.012), steady(0.024), verdictOK},
		{"noisy set-up inside its absolute slack", setup, noisy(0.012), steady(0.012), verdictOK},
		{"set-up worse by more than share and slack", setup, steady(2), steady(3), verdictRegression},
	} {
		if got := judge(tc.def, tc.base, tc.cand).Verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareSetsAndExitCode(t *testing.T) {
	mk := func(tps ...float64) resultFile {
		f := resultFile{Schema: resultSchema}
		for _, v := range tps {
			for _, def := range endToEnd {
				val := 10.0
				switch def.Name {
				case "commit_tps":
					val = v
				case failedShare:
					val = 0
				}
				f.Rows = append(f.Rows, resultRow{Workload: "iot_cold", measurement: measurement{Name: def.Name, Kind: "end_to_end", Unit: def.Unit, Value: val}})
			}
			// Per-layer rows never take part.
			f.Rows = append(f.Rows, resultRow{Workload: "iot_cold", measurement: measurement{Name: "wire.bytes_per_tx", Kind: "per_layer", Value: v}})
		}
		return f
	}
	dir := t.TempDir()
	write := func(name string, f resultFile) string {
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", mk(1000, 1010, 990, 1000))
	same := write("b.json", mk(1005, 995, 1000, 1002))
	slow := write("c.json", mk(700, 710, 705, 700))

	var out strings.Builder
	if code := compareFiles(&out, base, same); code != 0 {
		t.Errorf("same-commit sets: exit %d, want 0\n%s", code, out.String())
	}
	if got := len(compareSets(mk(1000), mk(1000))); got != len(endToEnd) {
		t.Errorf("%d comparison rows, want one per end-to-end metric (%d)", got, len(endToEnd))
	}
	out.Reset()
	if code := compareFiles(&out, base, slow); code == 0 {
		t.Errorf("a 30%% throughput loss must exit non-zero\n%s", out.String())
	}
	if !strings.Contains(out.String(), verdictRegression) || !strings.Contains(out.String(), "of 1000 tx/s") {
		t.Errorf("the table must mark the regression and give the ratio with its base:\n%s", out.String())
	}
	if code := compareFiles(&out, base, dir+"/missing.json"); code != 2 {
		t.Errorf("an unreadable file: exit %d, want 2", code)
	}
}

func TestSizeRun(t *testing.T) {
	for _, w := range workloads {
		full, again, half := sizeRun(w, 20, 1), sizeRun(w, 20, 1), sizeRun(w, 20, 0.5)
		if full != again {
			t.Errorf("%s: counts must depend only on the workload and --seconds", w.Name)
		}
		for _, n := range []int{full.PacedN, full.SatN, half.PacedN, half.SatN} {
			if n <= 0 || n%(2*ordererBlockSize) != 0 {
				t.Errorf("%s: count %d is not a positive multiple of %d", w.Name, n, 2*ordererBlockSize)
			}
		}
		// Shrinking a run shrinks counts, never the arrival rate.
		if got := float64(half.PacedN) / half.PacedDur; math.Abs(got-w.PacedRate) > 1e-9 {
			t.Errorf("%s: shrunk paced phase runs at %v tx/s, want %v", w.Name, got, w.PacedRate)
		}
		if half.PacedN >= full.PacedN || half.SatN >= full.SatN {
			t.Errorf("%s: the half-size run is not smaller", w.Name)
		}
	}
}

// The harness's line waiters: output arrives in arbitrary chunks, a wait
// is satisfied by a line printed before or after it starts, and an exit
// ends the wait with the child's last output.
func TestProcLineWaiters(t *testing.T) {
	p := &proc{name: "child", exited: make(chan struct{})}
	p.Write([]byte("fabricnet: orderer lis"))
	p.Write([]byte("tening on 127.0.0.1:4242\nfabricnet: partial"))
	addr, err := p.waitAddr("listen address", listenRE, time.Second)
	if err != nil || addr != "127.0.0.1:4242" {
		t.Fatalf("waitAddr = %q, %v", addr, err)
	}
	if _, err := p.waitLine("a completed line", func(l string) bool { return strings.Contains(l, "partial") }, 10*time.Millisecond); err == nil {
		t.Fatal("an unterminated line must not satisfy a wait")
	}
	done := make(chan lineHit, 1)
	go func() {
		hit, _ := p.waitLine("block 12", func(l string) bool { return strings.HasSuffix(l, " committed block 12 on ch1") }, 5*time.Second)
		done <- hit
	}()
	p.Write([]byte(" line\nfabricnet: Org3.peer0 committed block 120 on ch1\nfabricnet: Org3.peer0 committed block 12 on ch1\n"))
	if hit := <-done; !strings.HasSuffix(hit.line, "block 12 on ch1") || hit.at.IsZero() {
		t.Fatalf("woken by %q", hit.line)
	}
	close(p.exited)
	_, err = p.waitLine("a line that never comes", func(string) bool { return false }, 5*time.Second)
	if err == nil || !strings.Contains(err.Error(), "committed block 12 on ch1") {
		t.Fatalf("a wait on an exited child must fail with its last output, got %v", err)
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the catalogue in metrics.go")

// BENCHMARK.json is generated from the catalogue in metrics.go and the
// workload table (go test -run TestBenchmarkJSON -update): the contract and
// the benchmark cannot drift apart.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	type workloadDoc struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metricDoc struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDoc `json:"workloads"`
		EndToEnd   []metricDoc   `json:"end_to_end"`
		PerLayer   []metricDoc   `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
		doc.Workloads = append(doc.Workloads, workloadDoc{w.Name, w.Why})
	}
	seen := make(map[string]bool)
	check := func(def metricDef) {
		if seen[def.Name] || len(def.Name) > 64 || len(def.Unit) > 16 {
			t.Errorf("%s: duplicate or over-long name or unit", def.Name)
		}
		seen[def.Name] = true
	}
	hasSetup := false
	for _, def := range endToEnd {
		if def.Name == failedShare {
			continue // 0 on a healthy run: travels as failed/attempted
		}
		check(def)
		if def.Bound <= 0 || def.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", def.Name, def.Bound)
		}
		hasSetup = hasSetup || (def.Name == "setup_s" && def.Unit == "s" && def.Better == "lower")
		bound := def.Bound
		doc.EndToEnd = append(doc.EndToEnd, metricDoc{def.Name, def.Unit, def.Better, &bound})
	}
	if !hasSetup {
		t.Error("the contract requires setup_s, in s, lower is better")
	}
	for _, def := range perLayer {
		check(def)
		doc.PerLayer = append(doc.PerLayer, metricDoc{Name: def.Name, Unit: def.Unit, Better: def.Better})
	}
	if len(doc.PerLayer) > 128 || len(doc.EndToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(doc.PerLayer), len(doc.EndToEnd))
	}
	want, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	const path = "../BENCHMARK.json"
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("%s differs from the catalogue; regenerate it with -update", path)
	}
}
