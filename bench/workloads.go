package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Orderer settings every workload uses: small blocks and a short batch
// timeout, so commit latency is processor time plus batching and the
// paced phase cuts most blocks on the timeout.
const (
	ordererBlockSize    = 25
	ordererBatchTimeout = "100ms"
)

// wirePolicy is the endorsement policy cmd/fabricnet's roles install: any
// one organization endorses.
const wirePolicy = "OR('Org1.member','Org2.member','Org3.member')"

// chaincodeSeed is the workload seed cmd/fabricnet hard-codes for its
// chaincode; the driver's generator must use the same one to know which
// spec indexes are hot.
const chaincodeSeed = 42

// seedStride spaces the spec-index windows of different seeds: run seed S
// submits indexes S*seedStride + 0, 1, 2, …, which changes every cold key
// and the hot/cold assignment.
const seedStride = 1_000_000

// inFlight is the closed-loop window of the saturation phase, split evenly
// over the two connections.
const inFlight = 64

// workloadSpec is one traffic mix and the peer configuration it runs against.
type workloadSpec struct {
	Name string
	Why  string

	CRDT        bool
	ConflictPct int
	Channels    []string
	Durable     bool // -backend lsm -datadir <tmp>, block store on, no -fsync

	// PacedRate is the open-loop arrival rate in tx/s. It is fixed: a
	// shorter run submits fewer transactions, never slower ones.
	PacedRate float64
	// SatRate sizes the saturation phase: the count is SatRate × the
	// phase's share of the run, so the phase lasts about that long at
	// the throughput measured on the sizing host.
	SatRate float64
}

var workloads = []workloadSpec{
	{
		Name:        "iot_hot",
		Why:         "all transactions merge into one growing document: jsoncrdt+core do the work, statedb touches one key",
		CRDT:        true,
		ConflictPct: 100,
		Channels:    []string{"ch1"},
		PacedRate:   100,
		SatRate:     330,
	},
	{
		Name:        "iot_cold",
		Why:         "every transaction owns its key: merge is trivial, work is ed25519, ledger JSON, wire frames, statedb apply",
		CRDT:        true,
		ConflictPct: 0,
		Channels:    []string{"ch1"},
		PacedRate:   600,
		SatRate:     2400,
	},
	{
		Name:        "fabric_cold",
		Why:         "stock-Fabric control with CRDT off: txgraph+mvcc version checks instead of merges, core bypassed",
		CRDT:        false,
		ConflictPct: 0,
		Channels:    []string{"ch1"},
		PacedRate:   600,
		SatRate:     2700,
	},
	{
		Name:        "iot_mixed_durable",
		Why:         "two channels, 20% hot keys, LSM state and block store on disk: endorse-time reads race commit-time writes",
		CRDT:        true,
		ConflictPct: 20,
		Channels:    []string{"ch1", "ch2"},
		Durable:     true,
		PacedRate:   300,
		SatRate:     900,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// Shares of a run's --seconds each timed phase is sized for. Catch-up has
// no count of its own: it replays what the first two phases committed.
const (
	pacedShare = 0.40
	satShare   = 0.30
)

// sizing is the fixed transaction counts of one run. They depend only on
// the workload and --seconds, so state size is identical run to run.
type sizing struct {
	PacedN   int
	PacedDur float64 // seconds the open-loop schedule spans
	SatN     int
}

// sizeRun derives the counts from the measuring time. scale < 1 shrinks
// both phases (the per-layer run spends the difference on the traced phase
// and the layer replay).
func sizeRun(w workloadSpec, seconds int, scale float64) sizing {
	// Counts are multiples of 2×block so both connections carry the same
	// share and the last block of a phase is a full one.
	round := func(x float64) int {
		const q = 2 * ordererBlockSize
		n := int(math.Round(x/q)) * q
		if n < q {
			n = q
		}
		return n
	}
	s := float64(seconds) * scale
	pacedN := round(w.PacedRate * pacedShare * s)
	return sizing{
		PacedN:   pacedN,
		PacedDur: float64(pacedN) / w.PacedRate,
		SatN:     round(w.SatRate * satShare * s),
	}
}

// ordererArgs is the orderer's command line.
func ordererArgs(w workloadSpec) []string {
	return []string{
		"-role", "orderer", "-listen", "127.0.0.1:0",
		"-channels", strings.Join(w.Channels, ","),
		"-block", strconv.Itoa(ordererBlockSize), "-batch-timeout", ordererBatchTimeout,
	}
}

// peerArgs is one peer's command line: identity, addresses and the
// workload's flags; everything else stays at fabricnet's defaults.
func peerArgs(w workloadSpec, org, ordererAddr, dataDir string) []string {
	args := []string{
		"-role", "peer", "-name", org + ".peer0", "-org", org,
		"-listen", "127.0.0.1:0", "-connect", ordererAddr,
		"-channels", strings.Join(w.Channels, ","),
		fmt.Sprintf("-crdt=%t", w.CRDT), "-conflict", strconv.Itoa(w.ConflictPct),
	}
	if w.Durable {
		args = append(args, "-backend", "lsm", "-datadir", dataDir)
	}
	return args
}
