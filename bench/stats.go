package main

import (
	"math"
	"sort"
	"time"
)

// tailRanks are the percentiles a latency row may report, lowest first.
var tailRanks = []float64{50, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: fewer, and the figure is one or two outliers, not a tail.
const minBeyond = 10

// highestPercentile returns the highest rank in tailRanks that still has
// at least minBeyond of n samples beyond it; ok is false when not even the
// median qualifies.
func highestPercentile(n int) (rank float64, ok bool) {
	for _, r := range tailRanks {
		if n-nearestRank(n, r) < minBeyond {
			break
		}
		rank, ok = r, true
	}
	return rank, ok
}

// nearestRank is how many of n ascending samples lie at or below the
// rank-th percentile: the percentile is the last of them.
func nearestRank(n int, rank float64) int {
	// The epsilon keeps products like 99.9% of 10000 from rounding up
	// past the integer they stand for.
	k := int(math.Ceil(rank/100*float64(n) - 1e-9))
	return min(max(k, 1), n)
}

// percentile returns the rank-th percentile (nearest-rank) of an ascending
// sample.
func percentile(sorted []float64, rank float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[nearestRank(len(sorted), rank)-1]
}

// median returns the median of vals (not modified); NaN when empty.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile of vals by the exclusive
// method Python's statistics.quantiles(values, n=4) uses — the contract's
// spread is defined with it. Fewer than two values have no spread.
func quartiles(vals []float64) (q1, q3 float64) {
	n := len(vals)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 cut points
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// txSample is one transaction's timing in an open- or closed-loop phase.
type txSample struct {
	due       time.Time // when the schedule said to send (== sent in a closed loop)
	sent      time.Time // when the generator actually started it
	committed time.Time // when the commit event reached the driver
	ok        bool      // VALID or CRDT_MERGED
}

// latencySummary is the due-time latency accounting of one phase.
type latencySummary struct {
	samples  int
	p50, p95 float64 // ms, due → commit
	tail     float64 // ms, at tailRank
	tailRank float64
	lagP95   float64 // ms, due → sent: how late the generator ran
}

// summarizeLatency computes due-time latencies over the committed samples:
// a transaction the generator sent late is still timed from when it was
// due, so a stall charges every request queued behind it.
func summarizeLatency(samples []txSample) latencySummary {
	var lat, lag []float64
	for _, s := range samples {
		lag = append(lag, ms(s.sent.Sub(s.due)))
		if s.ok {
			lat = append(lat, ms(s.committed.Sub(s.due)))
		}
	}
	sort.Float64s(lat)
	sort.Float64s(lag)
	sum := latencySummary{
		samples: len(lat),
		p50:     percentile(lat, 50),
		p95:     percentile(lat, 95),
		lagP95:  percentile(lag, 95),
	}
	if rank, ok := highestPercentile(len(lat)); ok {
		sum.tailRank = rank
		sum.tail = percentile(lat, rank)
	}
	return sum
}
