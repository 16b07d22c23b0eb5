package simnet

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"fabriccrdt/internal/core"
	"fabriccrdt/internal/workload"
)

// fastModel keeps virtual costs small so tests run instantly; shape
// assertions other than Figure 3's decline don't depend on the calibrated
// constants.
func fastModel() *LatencyModel {
	return &LatencyModel{
		Endorse:          5 * time.Millisecond,
		Ordering:         10 * time.Millisecond,
		CommitPerBlock:   10 * time.Millisecond,
		CommitPerTx:      200 * time.Microsecond,
		StateReadPerKey:  100 * time.Microsecond,
		StateWritePerKey: 200 * time.Microsecond,
		CPUScale:         10,
	}
}

func crdtConfig(total int) Config {
	return Config{
		Mode:      ModeFabricCRDT,
		BlockSize: 20,
		Rate:      300,
		TotalTx:   total,
		Workload:  workload.IoTParams{ReadKeys: 1, WriteKeys: 1, JSONKeys: 2, ConflictPct: 100},
		Latency:   fastModel(),
		Engine:    core.Options{PaperLiteral: true},
	}
}

func TestCRDTModeCommitsEverything(t *testing.T) {
	res, err := Run(crdtConfig(500))
	if err != nil {
		t.Fatal(err)
	}
	if res.Successful != 500 || res.Failed != 0 {
		t.Fatalf("successful=%d failed=%d, want 500/0 (no-failure requirement)", res.Successful, res.Failed)
	}
	if res.Codes["CRDT_MERGED"] != 500 {
		t.Fatalf("codes = %v", res.Codes)
	}
	if res.MergedKeys != 1 {
		t.Fatalf("merged keys = %d, want 1 hot key", res.MergedKeys)
	}
	if res.Throughput <= 0 || res.AvgLatency <= 0 {
		t.Fatalf("degenerate metrics: %+v", res.Summary)
	}
}

func TestFabricModeFailsMostConflicting(t *testing.T) {
	cfg := crdtConfig(500)
	cfg.Mode = ModeFabric
	cfg.BlockSize = 100
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Successful+res.Failed != 500 {
		t.Fatalf("accounting: %d + %d != 500", res.Successful, res.Failed)
	}
	if res.Successful == 0 {
		t.Fatal("even stock Fabric commits at least one per block")
	}
	if res.Successful >= 100 {
		t.Fatalf("successful = %d; all-conflicting workload must fail most", res.Successful)
	}
	if res.Codes["MVCC_CONFLICT"] == 0 {
		t.Fatalf("codes = %v", res.Codes)
	}
}

func TestNonConflictingWorkloadAllSucceedInBothModes(t *testing.T) {
	for _, mode := range []Mode{ModeFabric, ModeFabricCRDT} {
		cfg := crdtConfig(300)
		cfg.Mode = mode
		cfg.Workload.ConflictPct = 0
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Successful != 300 {
			t.Fatalf("%v: successful = %d, want 300", mode, res.Successful)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	r1, err := Run(crdtConfig(400))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(crdtConfig(400))
	if err != nil {
		t.Fatal(err)
	}
	// Wall time differs; virtual metrics must not. CPU-derived commit
	// durations differ per run, so only count-based metrics are exactly
	// reproducible.
	if r1.Successful != r2.Successful || r1.Blocks != r2.Blocks ||
		!reflect.DeepEqual(r1.Codes, r2.Codes) {
		t.Fatalf("runs diverged:\n%+v\n%+v", r1.Summary, r2.Summary)
	}
}

// TestThroughputDeclinesWithBlockSize pins Figure 3's decline. Its size
// comes from the paper-literal per-transaction re-serialization: the
// converged document costs O(txs) to serialize and is serialized once per
// transaction, so merge cost per block grows with the block squared.
// Serializing once per key leaves the two throughputs within ~12% of each
// other, which the ratio bound rejects.
//
// The runs use the latency model calibrated on Figure 3 (DESIGN.md S18),
// not fastModel: at fastModel's CPUScale of 10 the measured merge CPU of a
// 500-transaction block stays below the modeled fixed costs on a fast
// host, where the ratio fell to ~1.25 (2-core Xeon). At the calibrated
// scale the literal pass gives ~6 on that host, and still ~1.65 with the
// scale cut fivefold, as on a host five times faster.
func TestThroughputDeclinesWithBlockSize(t *testing.T) {
	lm := DefaultLatencyModel()
	small := crdtConfig(1500)
	small.BlockSize = 25
	small.Latency = &lm
	big := crdtConfig(1500)
	big.BlockSize = 500
	big.Latency = &lm
	rSmall, err := Run(small)
	if err != nil {
		t.Fatal(err)
	}
	rBig, err := Run(big)
	if err != nil {
		t.Fatal(err)
	}
	if rSmall.Throughput < 1.5*rBig.Throughput {
		t.Fatalf("Figure 3 shape violated: tput(25)=%.1f < 1.5 × tput(500)=%.1f",
			rSmall.Throughput, rBig.Throughput)
	}
	if rSmall.AvgLatency >= rBig.AvgLatency {
		t.Fatalf("latency shape violated: lat(25)=%v >= lat(500)=%v",
			rSmall.AvgLatency, rBig.AvgLatency)
	}
}

func TestBatchTimeoutBoundsBlockSize(t *testing.T) {
	cfg := crdtConfig(600)
	cfg.BlockSize = 10000 // never reached at 300 tx/s
	cfg.BatchTimeout = time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 600 txs at 300/s = 2s of submissions; the 1s timeout must cut at
	// least 2 blocks.
	if res.Blocks < 2 {
		t.Fatalf("blocks = %d, want >= 2 (timeout cuts)", res.Blocks)
	}
	if res.Successful != 600 {
		t.Fatalf("successful = %d", res.Successful)
	}
}

// TestSeededEngineAccumulatesAcrossBlocks: the peer engine seeds each
// block's merge from the key's persisted state, so the hot key's committed
// document holds every reading of the run; the paper-literal engine starts
// every block from an empty document, so it holds the last block's only.
func TestSeededEngineAccumulatesAcrossBlocks(t *testing.T) {
	const total = 600
	readings := func(engine core.Options) int {
		t.Helper()
		cfg := crdtConfig(total)
		cfg.Engine = engine
		r, err := newRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Successful != total {
			t.Fatal("both engine modes must commit everything")
		}
		vv, ok := r.db.Get(r.gen.HotKeys()[0])
		if !ok {
			t.Fatal("hot key missing")
		}
		var doc struct {
			Readings []any `json:"temperatureReadings1"`
		}
		if err := json.Unmarshal(vv.Value, &doc); err != nil {
			t.Fatal(err)
		}
		return len(doc.Readings)
	}
	if n := readings(core.Options{}); n != total {
		t.Fatalf("seeded engine committed %d readings, want all %d", n, total)
	}
	if n, max := readings(core.Options{PaperLiteral: true}), crdtConfig(total).BlockSize; n == 0 || n > max {
		t.Fatalf("paper-literal engine committed %d readings, want the last block's (at most %d)", n, max)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{Mode: ModeFabric, BlockSize: 0, Rate: 1, TotalTx: 1},
		{Mode: ModeFabric, BlockSize: 1, Rate: 0, TotalTx: 1},
		{Mode: ModeFabric, BlockSize: 1, Rate: 1, TotalTx: 0},
		{Mode: Mode(99), BlockSize: 1, Rate: 1, TotalTx: 1},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestModeString(t *testing.T) {
	if ModeFabric.String() != "Fabric" || ModeFabricCRDT.String() != "FabricCRDT" {
		t.Fatal("mode strings wrong")
	}
}
