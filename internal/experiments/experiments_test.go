package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"fabriccrdt/internal/simnet"
)

// smokeOptions shrinks runs so the whole suite stays fast; shape assertions
// hold at this scale too. Cells run one at a time: simnet multiplies
// measured wall time by CPUScale, so cells contending for the CPU would
// scale scheduler noise into the throughputs the shape assertions compare.
func smokeOptions() Options {
	return Options{
		TotalTx:  600,
		Parallel: 1,
		Latency: &simnet.LatencyModel{
			Endorse:          5 * time.Millisecond,
			Ordering:         10 * time.Millisecond,
			CommitPerBlock:   10 * time.Millisecond,
			CommitPerTx:      200 * time.Microsecond,
			StateReadPerKey:  100 * time.Microsecond,
			StateWritePerKey: 200 * time.Microsecond,
			CPUScale:         10,
		},
	}
}

func TestBlockSizeShape(t *testing.T) {
	fig, err := BlockSize(smokeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 9 {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	for _, r := range fig.Rows {
		if r.CRDT.Successful != 600 {
			t.Fatalf("FabricCRDT at %s committed %d/600", r.Label, r.CRDT.Successful)
		}
		if r.Fabric.Successful >= 600/2 {
			t.Fatalf("Fabric at %s committed %d — conflicts not biting", r.Label, r.Fabric.Successful)
		}
		if r.CRDT.Throughput <= r.Fabric.Throughput {
			t.Fatalf("at %s: CRDT %.1f <= Fabric %.1f (winner flipped)",
				r.Label, r.CRDT.Throughput, r.Fabric.Throughput)
		}
	}
	// Monotone-ish decline: first row beats last row clearly. The decline
	// comes from the paper-literal per-transaction re-serialization;
	// without it the two rows land within ~15% of each other.
	first, last := fig.Rows[0].CRDT.Throughput, fig.Rows[len(fig.Rows)-1].CRDT.Throughput
	if first < 1.5*last {
		t.Fatalf("no clear decline: %.1f -> %.1f (want a ratio of at least 1.5)", first, last)
	}
}

func TestReadWriteKeysShape(t *testing.T) {
	fig, err := ReadWriteKeys(smokeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 6 {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	// 1-1 must beat 5-5 for FabricCRDT (more merging work per tx).
	if fig.Rows[0].CRDT.Throughput <= fig.Rows[5].CRDT.Throughput {
		t.Fatalf("rw-set growth did not reduce throughput: %.1f vs %.1f",
			fig.Rows[0].CRDT.Throughput, fig.Rows[5].CRDT.Throughput)
	}
	for _, r := range fig.Rows {
		if r.CRDT.Successful != 600 {
			t.Fatalf("FabricCRDT at %s committed %d/600", r.Label, r.CRDT.Successful)
		}
	}
}

func TestConflictPctShape(t *testing.T) {
	fig, err := ConflictPct(smokeOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range fig.Rows {
		if r.CRDT.Successful != 600 {
			t.Fatalf("FabricCRDT at %s committed %d/600", r.Label, r.CRDT.Successful)
		}
	}
	// Fabric successes decline as conflict percentage rises.
	prev := fig.Rows[0].Fabric.Successful
	if prev != 600 {
		t.Fatalf("Fabric at 0%% conflicts committed %d/600", prev)
	}
	last := fig.Rows[len(fig.Rows)-1].Fabric.Successful
	if last >= prev {
		t.Fatalf("Fabric successes did not decline: %d -> %d", prev, last)
	}
}

func TestArrivalRateShape(t *testing.T) {
	// The unsaturated-region assertion needs the rate-100 cell to keep up
	// with its arrivals: at scale 1 a descheduled goroutine cannot push its
	// commit cost past the arrival rate.
	opts := smokeOptions()
	opts.Latency.CPUScale = 1
	fig, err := ArrivalRate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 5 {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	for _, r := range fig.Rows {
		if r.CRDT.Successful != opts.TotalTx {
			t.Fatalf("FabricCRDT at rate %s committed %d", r.Label, r.CRDT.Successful)
		}
	}
	// Throughput grows from rate 100 to 200 (unsaturated region).
	if fig.Rows[1].CRDT.Throughput <= fig.Rows[0].CRDT.Throughput {
		t.Fatalf("throughput flat in unsaturated region: %.1f vs %.1f",
			fig.Rows[0].CRDT.Throughput, fig.Rows[1].CRDT.Throughput)
	}
}

func TestComplexityShape(t *testing.T) {
	fig, err := Complexity(smokeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if fig.Rows[0].CRDT.Throughput <= fig.Rows[len(fig.Rows)-1].CRDT.Throughput {
		t.Fatalf("complexity growth did not reduce throughput: %.1f vs %.1f",
			fig.Rows[0].CRDT.Throughput, fig.Rows[len(fig.Rows)-1].CRDT.Throughput)
	}
}

func TestByID(t *testing.T) {
	for _, id := range []string{"fig3", "fig4", "fig5", "fig6", "fig7", "blocksize", "rwkeys", "complexity", "arrival", "conflict", "FIG3"} {
		if _, err := ByID(id); err != nil {
			t.Errorf("ByID(%q): %v", id, err)
		}
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestPrintRendersAllSections(t *testing.T) {
	fig := Figure{ID: "figX", Title: "test", XAxis: "x", Rows: []Row{{Label: "a"}}}
	var buf bytes.Buffer
	Print(&buf, fig)
	out := buf.String()
	for _, frag := range []string{"FIGX", "(a) successful transactions throughput", "(b) average latency", "(c) number of successful", "FabricCRDT", "Fabric"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("output missing %q:\n%s", frag, out)
		}
	}
}

func TestProgressWriter(t *testing.T) {
	opts := smokeOptions()
	opts.TotalTx = 200
	var buf bytes.Buffer
	opts.Progress = &buf
	if _, err := ConflictPct(opts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "FabricCRDT") {
		t.Fatal("no progress lines written")
	}
}

func TestPrintComparisonRendersPaperNumbers(t *testing.T) {
	opts := smokeOptions()
	opts.TotalTx = 200
	fig, err := ConflictPct(opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	PrintComparison(&buf, fig)
	out := buf.String()
	for _, frag := range []string{"measured vs. paper", "0%", "80%", "/"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("comparison output missing %q:\n%s", frag, out)
		}
	}
	// Unknown figure IDs fall back to the plain printer.
	buf.Reset()
	PrintComparison(&buf, Figure{ID: "custom", Title: "t", XAxis: "x", Rows: []Row{{Label: "a"}}})
	if !strings.Contains(buf.String(), "(a) successful transactions throughput") {
		t.Fatal("fallback print missing")
	}
	// Mismatched sweep labels also fall back.
	buf.Reset()
	PrintComparison(&buf, Figure{ID: "fig3", Title: "t", XAxis: "x", Rows: []Row{{Label: "999"}}})
	if !strings.Contains(buf.String(), "(a) successful transactions throughput") {
		t.Fatal("label-mismatch fallback missing")
	}
}

func TestPaperDataComplete(t *testing.T) {
	for id, series := range PaperData {
		n := len(series.Labels)
		if n == 0 {
			t.Fatalf("%s: empty labels", id)
		}
		for name, l := range map[string]int{
			"CRDTTput": len(series.CRDTTput), "FabricTput": len(series.FabricTput),
			"CRDTLat": len(series.CRDTLat), "FabricLat": len(series.FabricLat),
			"CRDTSuccess": len(series.CRDTSuccess), "FabricSuccess": len(series.FabricSuccess),
		} {
			if l != n {
				t.Errorf("%s: %s has %d entries, want %d", id, name, l, n)
			}
		}
	}
}
