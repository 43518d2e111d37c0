// Command perfbench is the repository's benchmark: it runs one of three
// workloads (fig-sweep, multichannel, serve) against the simulator, checks
// every output against committed digests, and prints the end-to-end
// metrics, or with --trace 1 the per-layer metrics of a traced run. The
// last line of standard output is the result as one JSON object.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fig-sweep --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 30 --steady 5
//	bash perfbench/run.sh --write-golden perfbench/golden.json
//
// See README.md for the workloads, the metrics and how to read a traced
// run.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
)

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "seed the op list is generated from")
	seconds := flag.Float64("seconds", 30, "how long to measure")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	steady := flag.Int("steady", 0, "run the workload this many times (seeds seed, seed+1, ...) and report each metric's spread")
	golden := flag.String("write-golden", "", "simulate every workload's spec universe and write the digests to this file")
	flag.Parse()

	if *golden != "" {
		if err := writeGolden(*golden); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if !slices.Contains(workloadNames, *workload) || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %s, --trace 0|1 and --seconds > 0\n", strings.Join(workloadNames, "|"))
		return 2
	}
	if *steady > 0 {
		if err := steadiness(*workload, *seed, *seconds, *steady); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	var (
		vals  map[string]float64
		notes map[string]string
		st    *runStats
		table string
		err   error
	)
	if w, ok := suiteWorkloads[*workload]; ok {
		vals, notes, st, table, err = runSuiteWorkload(w, *seed, *seconds, *trace == 1)
	} else {
		vals, notes, st, table, err = runServe(*seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	res := result{Correct: st.failed == 0, Attempted: st.attempted, Failed: st.failed}
	if err := res.fill(defs, vals); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, f := range st.failures {
		fmt.Println("FAIL", f)
	}
	if table != "" {
		fmt.Println("  span self times of the traced replica runs:")
		fmt.Print(table)
	}
	if err := printResult(os.Stdout, *workload, defs, res, notes); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}
