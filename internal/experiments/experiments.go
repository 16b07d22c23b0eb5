// Package experiments defines one runnable experiment per figure of the
// paper's evaluation (§7, Figures 3–7), each sweeping the same parameter the
// paper sweeps with everything else pinned to the configuration tables
// (Tables 1–5), and prints the three sub-figure metrics: successful-tx
// throughput, average latency of successful txs, and successful-tx count.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"fabriccrdt/internal/core"
	"fabriccrdt/internal/simnet"
	"fabriccrdt/internal/workload"
)

// The paper's fixed comparison configuration after the block-size sweep
// (§7.3): "we fix the block size to 25 transactions/block for FabricCRDT,
// and to 400 transactions/block for Fabric".
const (
	CRDTBlockSize   = 25
	FabricBlockSize = 400
	// PaperRate is the default submission rate (Tables 1–3, 5).
	PaperRate = 300
	// PaperTotalTx is the per-experiment transaction count (§7.2).
	PaperTotalTx = 10000
)

// Options control an experiment run.
type Options struct {
	// TotalTx scales the workload; 0 means the paper's 10,000.
	TotalTx int
	// Parallel bounds concurrent cells; 0 means 4.
	Parallel int
	// Progress receives per-cell completion lines when non-nil.
	Progress io.Writer
	// Latency overrides the calibrated model when non-nil.
	Latency *simnet.LatencyModel
}

func (o Options) withDefaults() Options {
	if o.TotalTx <= 0 {
		o.TotalTx = PaperTotalTx
	}
	if o.Parallel <= 0 {
		o.Parallel = 4
	}
	return o
}

// Row is one x-axis point of a figure: both systems' summaries.
type Row struct {
	Label  string
	CRDT   simnet.Summary
	Fabric simnet.Summary
}

// Figure is a complete reproduced figure.
type Figure struct {
	ID    string
	Title string
	XAxis string
	Rows  []Row
}

// cell describes one simulation to run.
type cell struct {
	row    int
	isCRDT bool
	cfg    simnet.Config
}

// runCells executes cells with bounded parallelism and fills rows.
func runCells(opts Options, rows []Row, cells []cell) error {
	sem := make(chan struct{}, opts.Parallel)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for _, c := range cells {
		wg.Add(1)
		sem <- struct{}{}
		go func(c cell) {
			defer wg.Done()
			defer func() { <-sem }()
			res, err := simnet.Run(c.cfg)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			if c.isCRDT {
				rows[c.row].CRDT = res.Summary
			} else {
				rows[c.row].Fabric = res.Summary
			}
			if opts.Progress != nil {
				system := "Fabric    "
				if c.isCRDT {
					system = "FabricCRDT"
				}
				fmt.Fprintf(opts.Progress, "  %s %-14s %s (wall %v)\n",
					system, rows[c.row].Label, res.Summary, res.Wall.Round(time.Millisecond))
			}
		}(c)
	}
	wg.Wait()
	return firstErr
}

// baseConfig returns the shared simulation configuration. The merge engine
// runs Algorithm 1 as printed (a fresh document per block, the converged
// document re-serialized per transaction), which is what gives Figure 3 its
// block-size-dependent merge cost (DESIGN.md A1).
func baseConfig(opts Options, mode simnet.Mode, blockSize int, rate float64, wl workload.IoTParams) simnet.Config {
	return simnet.Config{
		Mode:      mode,
		BlockSize: blockSize,
		Rate:      rate,
		TotalTx:   opts.TotalTx,
		Workload:  wl,
		Latency:   opts.Latency,
		Engine:    core.Options{PaperLiteral: true},
	}
}

// BlockSize reproduces Figure 3: both systems swept over the maximum number
// of transactions per block, all transactions conflicting (Table 1).
func BlockSize(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	sizes := []int{25, 50, 100, 200, 300, 400, 600, 800, 1000}
	wl := workload.IoTParams{ReadKeys: 1, WriteKeys: 1, JSONKeys: 2, ConflictPct: 100}
	fig := Figure{
		ID:    "fig3",
		Title: "Effect of block size (Figure 3; Table 1: 300 tx/s, 1 read + 1 write key, 2-key JSON, 100% conflicting)",
		XAxis: "max transactions per block",
		Rows:  make([]Row, len(sizes)),
	}
	var cells []cell
	for i, size := range sizes {
		fig.Rows[i].Label = fmt.Sprintf("%d", size)
		cells = append(cells,
			cell{row: i, isCRDT: true, cfg: baseConfig(opts, simnet.ModeFabricCRDT, size, PaperRate, wl)},
			cell{row: i, isCRDT: false, cfg: baseConfig(opts, simnet.ModeFabric, size, PaperRate, wl)},
		)
	}
	return fig, runCells(opts, fig.Rows, cells)
}

// ReadWriteKeys reproduces Figure 4: the read/write-set size sweep
// (Table 2), FabricCRDT at 25 txs/block vs Fabric at 400.
func ReadWriteKeys(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	points := []struct{ r, w int }{{1, 1}, {3, 1}, {3, 3}, {5, 1}, {5, 3}, {5, 5}}
	fig := Figure{
		ID:    "fig4",
		Title: "Effect of read/write-set size (Figure 4; Table 2: 300 tx/s, 2-key JSON, 100% conflicting)",
		XAxis: "read keys — write keys",
		Rows:  make([]Row, len(points)),
	}
	var cells []cell
	for i, p := range points {
		fig.Rows[i].Label = fmt.Sprintf("%d-%d", p.r, p.w)
		wl := workload.IoTParams{ReadKeys: p.r, WriteKeys: p.w, JSONKeys: 2, ConflictPct: 100}
		cells = append(cells,
			cell{row: i, isCRDT: true, cfg: baseConfig(opts, simnet.ModeFabricCRDT, CRDTBlockSize, PaperRate, wl)},
			cell{row: i, isCRDT: false, cfg: baseConfig(opts, simnet.ModeFabric, FabricBlockSize, PaperRate, wl)},
		)
	}
	return fig, runCells(opts, fig.Rows, cells)
}

// Complexity reproduces Figure 5: JSON object complexity (keys × nesting
// depth, Table 3 and Listing 4), 1 read + 1 write key.
func Complexity(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	points := []int{2, 3, 4, 5, 6} // k-k complexity
	fig := Figure{
		ID:    "fig5",
		Title: "Effect of JSON complexity (Figure 5; Table 3: 300 tx/s, 1 read + 1 write key, 100% conflicting)",
		XAxis: "JSON keys — nesting depth",
		Rows:  make([]Row, len(points)),
	}
	var cells []cell
	for i, k := range points {
		fig.Rows[i].Label = fmt.Sprintf("%d-%d", k, k)
		wl := workload.IoTParams{ReadKeys: 1, WriteKeys: 1, JSONKeys: k, NestingDepth: k, ConflictPct: 100}
		cells = append(cells,
			cell{row: i, isCRDT: true, cfg: baseConfig(opts, simnet.ModeFabricCRDT, CRDTBlockSize, PaperRate, wl)},
			cell{row: i, isCRDT: false, cfg: baseConfig(opts, simnet.ModeFabric, FabricBlockSize, PaperRate, wl)},
		)
	}
	return fig, runCells(opts, fig.Rows, cells)
}

// ArrivalRate reproduces Figure 6: the transaction arrival-rate sweep
// (Table 4).
func ArrivalRate(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	rates := []float64{100, 200, 300, 400, 500}
	wl := workload.IoTParams{ReadKeys: 1, WriteKeys: 1, JSONKeys: 2, ConflictPct: 100}
	fig := Figure{
		ID:    "fig6",
		Title: "Effect of arrival rate (Figure 6; Table 4: 1 read + 1 write key, 2-key JSON, 100% conflicting)",
		XAxis: "transaction arrival rate (tx/s)",
		Rows:  make([]Row, len(rates)),
	}
	var cells []cell
	for i, rate := range rates {
		fig.Rows[i].Label = fmt.Sprintf("%.0f", rate)
		cells = append(cells,
			cell{row: i, isCRDT: true, cfg: baseConfig(opts, simnet.ModeFabricCRDT, CRDTBlockSize, rate, wl)},
			cell{row: i, isCRDT: false, cfg: baseConfig(opts, simnet.ModeFabric, FabricBlockSize, rate, wl)},
		)
	}
	return fig, runCells(opts, fig.Rows, cells)
}

// ConflictPct reproduces Figure 7: the percentage of conflicting
// transactions in the workload (Table 5).
func ConflictPct(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	pcts := []int{0, 20, 40, 60, 80}
	fig := Figure{
		ID:    "fig7",
		Title: "Effect of conflicting-transaction percentage (Figure 7; Table 5: 300 tx/s, 1 read + 1 write key, 2-key JSON)",
		XAxis: "% conflicting transactions",
		Rows:  make([]Row, len(pcts)),
	}
	var cells []cell
	for i, pct := range pcts {
		fig.Rows[i].Label = fmt.Sprintf("%d%%", pct)
		wl := workload.IoTParams{ReadKeys: 1, WriteKeys: 1, JSONKeys: 2, ConflictPct: pct, Seed: 42}
		cells = append(cells,
			cell{row: i, isCRDT: true, cfg: baseConfig(opts, simnet.ModeFabricCRDT, CRDTBlockSize, PaperRate, wl)},
			cell{row: i, isCRDT: false, cfg: baseConfig(opts, simnet.ModeFabric, FabricBlockSize, PaperRate, wl)},
		)
	}
	return fig, runCells(opts, fig.Rows, cells)
}

// All runs every figure in order.
func All(opts Options) ([]Figure, error) {
	runners := []func(Options) (Figure, error){
		BlockSize, ReadWriteKeys, Complexity, ArrivalRate, ConflictPct,
	}
	figs := make([]Figure, 0, len(runners))
	for _, run := range runners {
		fig, err := run(opts)
		if err != nil {
			return nil, err
		}
		figs = append(figs, fig)
	}
	return figs, nil
}

// ByID returns the named experiment runner.
func ByID(id string) (func(Options) (Figure, error), error) {
	switch strings.ToLower(id) {
	case "fig3", "blocksize":
		return BlockSize, nil
	case "fig4", "rwkeys":
		return ReadWriteKeys, nil
	case "fig5", "complexity":
		return Complexity, nil
	case "fig6", "arrival":
		return ArrivalRate, nil
	case "fig7", "conflict":
		return ConflictPct, nil
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q (want fig3..fig7 or blocksize/rwkeys/complexity/arrival/conflict)", id)
	}
}

// Print renders a figure as the paper's three sub-tables.
func Print(w io.Writer, fig Figure) {
	fmt.Fprintf(w, "\n%s — %s\n", strings.ToUpper(fig.ID), fig.Title)
	line := strings.Repeat("-", 74)
	fmt.Fprintln(w, line)
	fmt.Fprintf(w, "(a) successful transactions throughput (tx/s) by %s\n", fig.XAxis)
	fmt.Fprintf(w, "%-16s %14s %14s\n", fig.XAxis, "FabricCRDT", "Fabric")
	for _, r := range fig.Rows {
		fmt.Fprintf(w, "%-16s %14.1f %14.1f\n", r.Label, r.CRDT.Throughput, r.Fabric.Throughput)
	}
	fmt.Fprintln(w, line)
	fmt.Fprintln(w, "(b) average latency of successful transactions (s)")
	fmt.Fprintf(w, "%-16s %14s %14s\n", fig.XAxis, "FabricCRDT", "Fabric")
	for _, r := range fig.Rows {
		fmt.Fprintf(w, "%-16s %14.2f %14.2f\n", r.Label, r.CRDT.AvgLatency.Seconds(), r.Fabric.AvgLatency.Seconds())
	}
	fmt.Fprintln(w, line)
	fmt.Fprintln(w, "(c) number of successful transactions")
	fmt.Fprintf(w, "%-16s %14s %14s\n", fig.XAxis, "FabricCRDT", "Fabric")
	for _, r := range fig.Rows {
		fmt.Fprintf(w, "%-16s %14d %14d\n", r.Label, r.CRDT.Successful, r.Fabric.Successful)
	}
	fmt.Fprintln(w, line)
}
