package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// verdicts of one workload × metric comparison.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictMissing    = "missing"
)

// comparison is one row of -compare's table.
type comparison struct {
	Workload, Metric string
	Unit             string
	Base, New        float64 // medians
	BaseSpread       float64 // (Q3−Q1)/median within each set; NaN for a single run
	NewSpread        float64
	Bound            float64
	Verdict          string
}

// worsening is how much worse b is than a, in the metric's unit (negative
// when b is better).
func worsening(def metricDef, a, b float64) float64 {
	if def.Better == "higher" {
		return a - b
	}
	return b - a
}

// exceeds reports whether a difference in the metric's unit is beyond both
// the metric's bound, taken as a share of base, and its absolute slack.
func exceeds(def metricDef, diff, base float64) bool {
	return diff > def.Bound*base && diff > def.Slack
}

// judge applies one end-to-end metric's own bound to two sets of runs. A
// metric whose run-to-run spread in either set exceeds the bound cannot
// resolve a change of that size: it is unresolved, never "unchanged".
func judge(def metricDef, base, cand []float64) comparison {
	c := comparison{Metric: def.Name, Unit: def.Unit, Bound: def.Bound, Base: median(base), New: median(cand)}
	baseQ1, baseQ3 := quartiles(base)
	candQ1, candQ3 := quartiles(cand)
	c.BaseSpread, c.NewSpread = (baseQ3-baseQ1)/c.Base, (candQ3-candQ1)/c.New
	switch {
	case len(base) == 0 || len(cand) == 0:
		c.Verdict = verdictMissing
	case def.Name == failedShare:
		// Any rise is a regression; there is no spread to hide behind.
		c.Verdict = verdictOK
		if c.New > c.Base {
			c.Verdict = verdictRegression
		}
	case exceeds(def, baseQ3-baseQ1, c.Base) || exceeds(def, candQ3-candQ1, c.New):
		c.Verdict = verdictUnresolved
	case exceeds(def, worsening(def, c.Base, c.New), c.Base):
		c.Verdict = verdictRegression
	default:
		c.Verdict = verdictOK
	}
	return c
}

// compareSets compares every workload × end-to-end metric of two result
// files.
func compareSets(base, cand resultFile) []comparison {
	collect := func(f resultFile) map[[2]string][]float64 {
		out := make(map[[2]string][]float64)
		for _, r := range f.Rows {
			if r.Kind == "end_to_end" {
				k := [2]string{r.Workload, r.Name}
				out[k] = append(out[k], r.Value)
			}
		}
		return out
	}
	a, b := collect(base), collect(cand)
	seen := make(map[string]bool)
	var names []string
	for _, m := range []map[[2]string][]float64{a, b} {
		for k := range m {
			if !seen[k[0]] {
				seen[k[0]] = true
				names = append(names, k[0])
			}
		}
	}
	sort.Strings(names)
	var out []comparison
	for _, w := range names {
		for _, def := range endToEnd {
			k := [2]string{w, def.Name}
			c := judge(def, a[k], b[k])
			c.Workload = w
			out = append(out, c)
		}
	}
	return out
}

// compareFiles prints the comparison of two result files and returns the
// process exit code: non-zero on any regression, missing or unresolved
// metric.
func compareFiles(w io.Writer, basePath, candPath string) int {
	base, err := readResults(basePath)
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	cand, err := readResults(candPath)
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	code := 0
	pct := func(v float64) string {
		if math.IsNaN(v) {
			return "   n/a"
		}
		return fmt.Sprintf("%5.1f%%", v*100)
	}
	fmt.Fprintf(w, "%-18s %-22s %14s %14s  %-22s %7s %7s %6s  %s\n",
		"workload", "metric", "base median", "new median", "new/base", "spreadA", "spreadB", "bound", "verdict")
	for _, c := range compareSets(base, cand) {
		ratio := "n/a"
		if c.Base != 0 && !math.IsNaN(c.Base) && !math.IsNaN(c.New) {
			ratio = fmt.Sprintf("%.3f of %.4g %s", c.New/c.Base, c.Base, c.Unit)
		}
		fmt.Fprintf(w, "%-18s %-22s %14.4f %14.4f  %-22s %7s %7s %6s  %s\n",
			c.Workload, c.Metric, c.Base, c.New, ratio, pct(c.BaseSpread), pct(c.NewSpread), pct(c.Bound), c.Verdict)
		if c.Verdict != verdictOK {
			code = 1
		}
	}
	return code
}
