// Command fabriccrdt-bench regenerates the paper's evaluation figures
// (Figures 3–7) by driving the real FabricCRDT/Fabric commit-path code
// through the virtual-time experiment harness.
//
// Usage:
//
//	fabriccrdt-bench                         # all figures, paper scale
//	fabriccrdt-bench -experiment fig3        # one figure
//	fabriccrdt-bench -txs 2000 -parallel 8   # reduced scale, more parallel
//
// -compare prints the paper's numbers beside the measured ones; DESIGN.md
// S18 records how the latency model is calibrated against them. Accurate
// virtual times need low -parallel values (cells measure their own CPU;
// heavy co-scheduling inflates it); -parallel 1 gives the most stable
// numbers.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"fabriccrdt/internal/experiments"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment to run: all, fig3..fig7, blocksize, rwkeys, complexity, arrival, conflict")
		txs        = flag.Int("txs", experiments.PaperTotalTx, "transactions per cell (paper: 10000)")
		parallel   = flag.Int("parallel", 2, "concurrent cells (1 = most accurate timing)")
		verbose    = flag.Bool("v", false, "print per-cell progress")
		compare    = flag.Bool("compare", false, "print measured numbers side by side with the paper's")
	)
	flag.Parse()

	opts := experiments.Options{TotalTx: *txs, Parallel: *parallel}
	if *verbose {
		opts.Progress = os.Stderr
	}

	start := time.Now()
	var figs []experiments.Figure
	if *experiment == "all" {
		all, err := experiments.All(opts)
		if err != nil {
			fatal(err)
		}
		figs = all
	} else {
		run, err := experiments.ByID(*experiment)
		if err != nil {
			fatal(err)
		}
		fig, err := run(opts)
		if err != nil {
			fatal(err)
		}
		figs = []experiments.Figure{fig}
	}
	for _, fig := range figs {
		if *compare {
			experiments.PrintComparison(os.Stdout, fig)
		} else {
			experiments.Print(os.Stdout, fig)
		}
	}
	fmt.Fprintf(os.Stderr, "\ncompleted in %v (txs per cell: %d)\n", time.Since(start).Round(time.Second), *txs)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fabriccrdt-bench:", err)
	os.Exit(1)
}
