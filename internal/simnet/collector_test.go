package simnet

import (
	"strings"
	"testing"
	"time"

	"fabriccrdt/internal/ledger"
)

func TestSummaryBasics(t *testing.T) {
	var c Collector
	c.Submitted(0)
	c.Submitted(time.Second)
	c.Submitted(2 * time.Second)
	c.Committed(0, 2*time.Second, ledger.CodeValid)
	c.Committed(time.Second, 4*time.Second, ledger.CodeCRDTMerged)
	c.Committed(2*time.Second, 5*time.Second, ledger.CodeMVCCConflict)
	c.BlockCommitted()
	c.BlockCommitted()
	s := c.Summarize()
	if s.Submitted != 3 || s.Successful != 2 || s.Failed != 1 || s.Blocks != 2 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Duration != 5*time.Second {
		t.Fatalf("duration = %v", s.Duration)
	}
	if want := 2.0 / 5.0; s.Throughput != want {
		t.Fatalf("throughput = %f, want %f", s.Throughput, want)
	}
	// Latencies: 2s and 3s -> avg 2.5s, max 3s.
	if s.AvgLatency != 2500*time.Millisecond || s.Max != 3*time.Second {
		t.Fatalf("avg = %v, max = %v", s.AvgLatency, s.Max)
	}
	if s.Codes["VALID"] != 1 || s.Codes["CRDT_MERGED"] != 1 || s.Codes["MVCC_CONFLICT"] != 1 {
		t.Fatalf("codes = %v", s.Codes)
	}
}

func TestEmptyCollector(t *testing.T) {
	var c Collector
	s := c.Summarize()
	if s.Submitted != 0 || s.Successful != 0 || s.Throughput != 0 || s.AvgLatency != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestPercentiles(t *testing.T) {
	var c Collector
	c.Submitted(0)
	for i := 1; i <= 100; i++ {
		c.Committed(0, time.Duration(i)*time.Second, ledger.CodeValid)
	}
	s := c.Summarize()
	if s.P50 != 51*time.Second {
		t.Fatalf("p50 = %v", s.P50)
	}
	if s.P95 != 96*time.Second {
		t.Fatalf("p95 = %v", s.P95)
	}
	if s.Max != 100*time.Second {
		t.Fatalf("max = %v", s.Max)
	}
}

func TestOnlyFailures(t *testing.T) {
	var c Collector
	c.Submitted(0)
	c.Committed(0, time.Second, ledger.CodeMVCCConflict)
	s := c.Summarize()
	if s.Successful != 0 || s.Failed != 1 || s.AvgLatency != 0 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestStringContainsMetrics(t *testing.T) {
	var c Collector
	c.Submitted(0)
	c.Committed(0, time.Second, ledger.CodeValid)
	out := c.Summarize().String()
	for _, frag := range []string{"submitted=1", "successful=1", "tput="} {
		if !strings.Contains(out, frag) {
			t.Fatalf("summary string %q missing %q", out, frag)
		}
	}
}
