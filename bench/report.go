package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// measurement is one reported figure.
type measurement struct {
	Name    string  `json:"metric"`
	Kind    string  `json:"kind"` // end_to_end or per_layer
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Phase   string  `json:"phase"`
	Samples int     `json:"samples"`
	// Percentile is set on latency rows: which percentile the value is.
	Percentile float64 `json:"percentile,omitempty"`
}

// report is what one workload's passes measured.
type report struct {
	Workload  string
	Correct   bool
	Attempted int
	Failed    int
	// FlagLines are the exact command lines of every process started.
	FlagLines []string
	Rows      []measurement
	// Notes are printed under the table: sizes, policies, caveats.
	Notes []string

	err error // metrics recorded under names the catalogue does not have
}

// add records one metric. A name missing from the catalogue is a bug in
// the benchmark, not a measurement failure: it is kept in err, which the
// caller checks once the pass is over.
func (r *report) add(catalogue []metricDef, kind, phase, name string, value float64, samples int) {
	def, err := lookup(catalogue, name)
	if err != nil {
		r.err = errors.Join(r.err, err)
		return
	}
	r.Rows = append(r.Rows, measurement{Name: name, Kind: kind, Unit: def.Unit, Value: value, Phase: phase, Samples: samples})
}

// e2e records an end-to-end metric.
func (r *report) e2e(phase, name string, value float64, samples int) {
	r.add(endToEnd, "end_to_end", phase, name, value, samples)
}

// layer records a per-layer metric.
func (r *report) layer(phase, name string, value float64, samples int) {
	r.add(perLayer, "per_layer", phase, name, value, samples)
}

// percentileOf records which percentile a latency row's value is.
func (r *report) percentileOf(name string, rank float64) {
	for i := range r.Rows {
		if r.Rows[i].Name == name {
			r.Rows[i].Percentile = rank
		}
	}
}

// missing lists the catalogue metrics the report has no row for.
func (r *report) missing(catalogue []metricDef) []string {
	have := make(map[string]bool, len(r.Rows))
	for _, m := range r.Rows {
		have[m.Name] = true
	}
	var out []string
	for _, def := range catalogue {
		if !have[def.Name] {
			out = append(out, def.Name)
		}
	}
	return out
}

// print writes every metric by name with its unit and sample count.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s  correct=%t attempted=%d failed=%d\n", r.Workload, r.Correct, r.Attempted, r.Failed)
	for _, line := range r.FlagLines {
		fmt.Fprintf(w, "   $ %s\n", line)
	}
	kind := ""
	for _, m := range r.Rows {
		if m.Kind != kind {
			kind = m.Kind
			fmt.Fprintf(w, "-- %s\n", kind)
		}
		pct := ""
		if m.Percentile != 0 {
			pct = fmt.Sprintf(" p%g", m.Percentile)
		}
		fmt.Fprintf(w, "   %-42s %16.4f %-6s n=%-7d %s%s\n", m.Name, m.Value, m.Unit, m.Samples, m.Phase, pct)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
}

// contractLine is the benchmark contract's result object.
func (r *report) contractLine() map[string]any {
	metrics := make(map[string]any, len(r.Rows))
	for _, m := range r.Rows {
		if m.Name == failedShare {
			continue // carried by failed/attempted
		}
		metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return map[string]any{
		"correct":   r.Correct,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	}
}

// stamp is the identity every result row carries, so rows from different
// runs, seeds, commits and machines can be told apart.
type stamp struct {
	Run        string `json:"run"` // start time of the invocation
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	GitCommit  string `json:"git_commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

func newStamp(env *benchEnv) stamp {
	commit := "unknown" // the contract's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return stamp{
		Run:        time.Now().UTC().Format(time.RFC3339Nano),
		Seed:       env.seed,
		Seconds:    env.seconds,
		GitCommit:  commit,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// resultRow is one row of a result file.
type resultRow struct {
	Workload string `json:"workload"`
	measurement
	stamp
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Flags     []string `json:"flags"`
}

// resultFile is the -out document: a set of runs. Running again with the
// same -out appends, which is how a set for -compare is collected.
type resultFile struct {
	Schema string      `json:"schema"`
	Rows   []resultRow `json:"rows"`
}

const resultSchema = "fabriccrdt-bench/1"

func readResults(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return f, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	return f, nil
}

// appendResults adds the reports' rows to the result file at path.
func appendResults(path string, st stamp, reports []*report) error {
	f, err := readResults(path)
	if errors.Is(err, fs.ErrNotExist) {
		f = resultFile{Schema: resultSchema}
	} else if err != nil {
		return err
	}
	for _, r := range reports {
		for _, m := range r.Rows {
			f.Rows = append(f.Rows, resultRow{
				Workload: r.Workload, measurement: m, stamp: st,
				Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Flags: r.FlagLines,
			})
		}
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
