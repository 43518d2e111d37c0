// Command benchjson converts `go test -bench` text output on stdin into a
// stable JSON document on stdout, so benchmark baselines can be committed
// and diffed (see BENCH_sim.json and `make bench`).
//
// Usage:
//
//	go test -bench . -benchmem -run '^$' ./... | go run ./cmd/benchjson > BENCH_sim.json
//
// Only benchmark result lines are parsed; build noise, PASS/ok lines, and
// unparsable lines pass through to stderr untouched. Names lose the -N
// GOMAXPROCS suffix, so results from hosts with different CPU counts join.
// Iteration counts and wall-clock-dependent ns/op vary run to run, so
// cmd/benchdiff gates ns/op against the committed baseline only loosely and
// allocs/op strictly.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Package     string  `json:"package,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Doc is the committed JSON shape.
type Doc struct {
	Note    string   `json:"note"`
	Results []Result `json:"results"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run() error {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	doc := Doc{
		Note: "go test -bench . -benchmem baseline; regenerate with `make bench`",
	}
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if r, ok := parseBenchLine(line, pkg); ok {
			doc.Results = append(doc.Results, r)
			continue
		}
		if strings.HasPrefix(line, "Benchmark") {
			// A benchmark line we failed to parse deserves a loud complaint.
			fmt.Fprintln(os.Stderr, "benchjson: unparsed:", line)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// parseBenchLine parses one `BenchmarkX-8  1000  123.4 ns/op  16 B/op  1
// allocs/op` line.
func parseBenchLine(line, pkg string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: trimProcs(fields[0]), Package: pkg, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Result{}, false
			}
			r.NsPerOp = f
		case "B/op":
			r.BytesPerOp, _ = strconv.ParseInt(val, 10, 64)
		case "allocs/op":
			r.AllocsPerOp, _ = strconv.ParseInt(val, 10, 64)
		}
	}
	if r.NsPerOp == 0 {
		return Result{}, false
	}
	return r, true
}

// trimProcs drops the -N suffix `go test` appends to a benchmark name when
// GOMAXPROCS is above 1, so a baseline recorded on one host matches fresh
// results from another. A name whose last hyphen is followed by anything
// but digits is returned unchanged.
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}
