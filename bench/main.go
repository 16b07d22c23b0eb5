// Command bench is the repository's end-to-end benchmark: it builds
// cmd/fabricnet, runs an orderer and peers as real processes on loopback
// TCP, drives them from this process, and reports end-to-end and per-layer
// metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"fabriccrdt/internal/cryptoid"
)

// defaultSeconds is the measuring time of one run when --seconds is not
// given; BENCHMARK.json's run_seconds is the same number.
const defaultSeconds = 28

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed         = fs.Int64("seed", 0, "input seed: run S submits spec indexes S*10^6 + 0, 1, 2, …")
		seconds      = fs.Int("seconds", defaultSeconds, "measuring time the phases are sized for")
		trace        = fs.String("trace", "", "0 = end-to-end run only, 1 = per-layer run only, empty = both")
		out          = fs.String("out", "", "append this run's rows to a JSON result file")
		compare      = fs.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	var selected []workloadSpec
	if *workloadName == "all" {
		selected = workloads
	} else if w, ok := findWorkload(*workloadName); ok {
		selected = []workloadSpec{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want %s or all)\n", *workloadName, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || *seed < 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1 and -seed non-negative")
		return 2
	}
	var passes []bool // traced?
	switch *trace {
	case "0":
		passes = []bool{false}
	case "1":
		passes = []bool{true}
	case "":
		passes = []bool{false, true}
	default:
		fmt.Fprintf(os.Stderr, "bench: -trace must be 0 or 1, got %q\n", *trace)
		return 2
	}

	// The processes this benchmark starts share the machine with it: pin
	// the driver to the cores the contract names.
	runtime.GOMAXPROCS(runtime.NumCPU())

	root, err := findRepoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	buildDir := filepath.Join(root, ".bench_build")
	bin, buildDur, err := buildFabricnet(root, buildDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	signer, err := cryptoid.NewDeterministicCA("Org1", caSeed).Issue("bench-driver")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	env := &benchEnv{
		ps:      &procSet{bin: bin, scratch: filepath.Join(buildDir, "scratch")},
		signer:  signer,
		buildS:  buildDur.Seconds(),
		seed:    *seed,
		seconds: *seconds,
	}
	defer env.ps.closeAll()

	// Ctrl-C or SIGTERM: reap the children and remove the scratch
	// directories before going down.
	interrupted := make(chan os.Signal, 1)
	signal.Notify(interrupted, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-interrupted
		fmt.Fprintf(os.Stderr, "bench: %v: stopping children\n", sig)
		env.ps.closeAll()
		os.Exit(130)
	}()

	stamp := newStamp(env)
	var reports []*report
	code := 0
	for _, w := range selected {
		rep := &report{Workload: w.Name, Correct: true}
		for _, traced := range passes {
			var err error
			if traced {
				err = perLayerPass(env, w, rep)
			} else {
				err = endToEndPass(env, w, rep)
			}
			if err == nil {
				err = rep.err
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
				rep.Correct = false
				code = 1
				break
			}
		}
		rep.print(os.Stdout)
		reports = append(reports, rep)
	}
	if *out != "" {
		if err := appendResults(*out, stamp, reports); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
		}
	}
	// The contract's result line: one workload, last line of stdout. A
	// failed run prints none and exits non-zero.
	if len(reports) == 1 && code == 0 {
		line, err := json.Marshal(reports[0].contractLine())
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	return code
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}
