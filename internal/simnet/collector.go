package simnet

import (
	"fmt"
	"sort"
	"time"

	"fabriccrdt/internal/ledger"
)

// Collector accumulates per-transaction outcomes and summarizes the three
// quantities the paper reports for every experiment (Figures 3–7):
// throughput of successful transactions, average latency of successful
// transactions, and the number of successful transactions — the same
// metrics Hyperledger Caliper emits. The zero value is ready to use. Not
// safe for concurrent use (the DES is single-threaded).
type Collector struct {
	submitted int
	latencies []time.Duration
	codes     map[ledger.ValidationCode]int

	haveFirst   bool
	firstSubmit time.Duration
	lastCommit  time.Duration
	blocks      int
}

// Submitted records a transaction submission at virtual time t.
func (c *Collector) Submitted(t time.Duration) {
	if !c.haveFirst || t < c.firstSubmit {
		c.firstSubmit = t
		c.haveFirst = true
	}
	c.submitted++
}

// Committed records a transaction outcome: its submission and commit times
// and validation code. Latency is tracked for successful codes only, as in
// the paper ("average latency of successful transactions").
func (c *Collector) Committed(submit, commit time.Duration, code ledger.ValidationCode) {
	if c.codes == nil {
		c.codes = make(map[ledger.ValidationCode]int)
	}
	c.codes[code]++
	if commit > c.lastCommit {
		c.lastCommit = commit
	}
	if code.Committed() {
		c.latencies = append(c.latencies, commit-submit)
	}
}

// BlockCommitted counts one committed block.
func (c *Collector) BlockCommitted() { c.blocks++ }

// Summary is the aggregated result of one experiment run.
type Summary struct {
	Submitted  int
	Successful int
	Failed     int
	Blocks     int
	// Duration spans first submission to last commit.
	Duration time.Duration
	// Throughput is successful transactions per second of Duration.
	Throughput float64
	// AvgLatency, P50, P95 and Max are over successful transactions.
	AvgLatency time.Duration
	P50        time.Duration
	P95        time.Duration
	Max        time.Duration
	// Codes counts transactions per validation code string.
	Codes map[string]int
}

// Summarize computes the summary.
func (c *Collector) Summarize() Summary {
	s := Summary{
		Submitted:  c.submitted,
		Successful: len(c.latencies),
		Blocks:     c.blocks,
		Codes:      make(map[string]int, len(c.codes)),
	}
	total := 0
	for code, n := range c.codes {
		s.Codes[code.String()] = n
		total += n
	}
	s.Failed = total - s.Successful
	if c.haveFirst && c.lastCommit > c.firstSubmit {
		s.Duration = c.lastCommit - c.firstSubmit
	}
	if s.Duration > 0 {
		s.Throughput = float64(s.Successful) / s.Duration.Seconds()
	}
	if len(c.latencies) > 0 {
		sorted := make([]time.Duration, len(c.latencies))
		copy(sorted, c.latencies)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		var sum time.Duration
		for _, l := range sorted {
			sum += l
		}
		s.AvgLatency = sum / time.Duration(len(sorted))
		s.P50 = sorted[len(sorted)/2]
		s.P95 = sorted[(len(sorted)*95)/100]
		s.Max = sorted[len(sorted)-1]
	}
	return s
}

// String renders the summary in one line.
func (s Summary) String() string {
	return fmt.Sprintf("submitted=%d successful=%d failed=%d blocks=%d tput=%.1f tx/s avgLat=%.2fs p95=%.2fs",
		s.Submitted, s.Successful, s.Failed, s.Blocks, s.Throughput,
		s.AvgLatency.Seconds(), s.P95.Seconds())
}
