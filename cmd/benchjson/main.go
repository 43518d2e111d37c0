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
// GOMAXPROCS suffix, so results from hosts with different CPU counts join;
// the suffix, the `go test` header lines (cpu, goos, goarch) and this
// process's Go version and CPU count are recorded in the document's host
// object instead.
// Iteration counts and wall-clock-dependent ns/op vary run to run, so
// cmd/benchdiff gates ns/op against the committed baseline only loosely and
// allocs/op strictly.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
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

// Host records the machine and toolchain the benchmarks ran on.
type Host struct {
	CPU        string `json:"cpu,omitempty"`    // `go test`'s cpu: header
	GOOS       string `json:"goos,omitempty"`   // `go test`'s goos: header
	GOARCH     string `json:"goarch,omitempty"` // `go test`'s goarch: header
	GoVersion  string `json:"go_version"`       // runtime.Version()
	NumCPU     int    `json:"num_cpu"`          // runtime.NumCPU()
	GOMAXPROCS int    `json:"gomaxprocs"`       // from the first result's -N suffix; 1 without one
}

// Doc is the committed JSON shape.
type Doc struct {
	Note    string   `json:"note"`
	Host    Host     `json:"host"`
	Results []Result `json:"results"`
}

func main() {
	if err := run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(in io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	doc := Doc{
		Note: "go test -bench . -benchmem baseline; regenerate with `make bench`",
		Host: Host{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU()},
	}
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if parseHeader(&doc.Host, line) {
			continue
		}
		if r, procs, ok := parseBenchLine(line, pkg); ok {
			if doc.Results == nil {
				doc.Host.GOMAXPROCS = procs
			}
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
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// parseHeader records one of the `cpu:`, `goos:` and `goarch:` lines `go
// test -bench` prints before a package's results, reporting whether line
// was one.
func parseHeader(h *Host, line string) bool {
	for _, f := range []struct {
		prefix string
		dst    *string
	}{{"cpu: ", &h.CPU}, {"goos: ", &h.GOOS}, {"goarch: ", &h.GOARCH}} {
		if rest, ok := strings.CutPrefix(line, f.prefix); ok {
			*f.dst = strings.TrimSpace(rest)
			return true
		}
	}
	return false
}

// parseBenchLine parses one `BenchmarkX-8  1000  123.4 ns/op  16 B/op  1
// allocs/op` line, returning the GOMAXPROCS its name's suffix records.
func parseBenchLine(line, pkg string) (Result, int, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, 0, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, 0, false
	}
	name, procs := trimProcs(fields[0])
	r := Result{Name: name, Package: pkg, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Result{}, 0, false
			}
			r.NsPerOp = f
		case "B/op":
			r.BytesPerOp, _ = strconv.ParseInt(val, 10, 64)
		case "allocs/op":
			r.AllocsPerOp, _ = strconv.ParseInt(val, 10, 64)
		}
	}
	if r.NsPerOp == 0 {
		return Result{}, 0, false
	}
	return r, procs, true
}

// trimProcs drops the -N suffix `go test` appends to a benchmark name when
// GOMAXPROCS is above 1, so a baseline recorded on one host matches fresh
// results from another, and returns N. A name whose last hyphen is
// followed by anything but digits is returned unchanged, with GOMAXPROCS 1.
func trimProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name, 1
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name, 1
		}
	}
	procs, _ := strconv.Atoi(name[i+1:])
	return name[:i], procs
}
