// Command benchdiff gates benchmark regressions against the committed
// baseline. It reads a fresh cmd/benchjson document (stdin or a file
// argument), joins it with the baseline JSON (BENCH_sim.json), and fails —
// exit code 1 — when any benchmark regresses past its threshold.
//
// Thresholds are asymmetric by design. Allocation counts are deterministic
// for a deterministic simulator, so allocs/op is gated strictly (small
// relative tolerance plus a constant slack for amortized-growth rounding).
// Wall time on shared CI runners is noisy, so ns/op gets a generous
// multiplicative tolerance; bytes/op sits in between. Benchmarks present
// on only one side are reported but never fail the gate, so adding a
// benchmark does not require regenerating the baseline in the same change.
// A run in which no fresh result matches any baseline row fails, since it
// compared nothing.
//
// Usage:
//
//	go test -bench . -benchmem -run '^$' ./... | go run ./cmd/benchjson \
//	    | go run ./cmd/benchdiff -baseline BENCH_sim.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// Result mirrors cmd/benchjson's per-benchmark record.
type Result struct {
	Name        string  `json:"name"`
	Package     string  `json:"package,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Doc mirrors cmd/benchjson's committed JSON shape.
type Doc struct {
	Note    string   `json:"note"`
	Results []Result `json:"results"`
}

// Tolerances bound how far a fresh result may drift above the baseline
// before the gate fails.
type Tolerances struct {
	NsTol       float64 // relative ns/op headroom; negative disables the check
	AllocsTol   float64 // relative allocs/op headroom
	AllocsSlack int64   // absolute allocs/op headroom on top of AllocsTol
	BytesTol    float64 // relative bytes/op headroom; negative disables
	BytesSlack  int64   // absolute bytes/op headroom on top of BytesTol
}

// Verdict is one benchmark's comparison outcome.
type Verdict struct {
	Key      string
	Base     *Result
	Fresh    *Result
	Failures []string
}

// OK reports whether the benchmark passed the gate (missing counterparts
// pass by definition).
func (v *Verdict) OK() bool { return len(v.Failures) == 0 }

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	baseline := fs.String("baseline", "BENCH_sim.json", "committed baseline JSON")
	tol := Tolerances{}
	fs.Float64Var(&tol.NsTol, "ns-tol", 0.75, "allowed relative ns/op regression (0.75 = +75%); negative disables")
	fs.Float64Var(&tol.AllocsTol, "allocs-tol", 0.05, "allowed relative allocs/op regression")
	fs.Int64Var(&tol.AllocsSlack, "allocs-slack", 3, "absolute allocs/op slack on top of -allocs-tol")
	fs.Float64Var(&tol.BytesTol, "bytes-tol", 0.30, "allowed relative bytes/op regression; negative disables")
	fs.Int64Var(&tol.BytesSlack, "bytes-slack", 4096, "absolute bytes/op slack on top of -bytes-tol")
	if err := fs.Parse(args); err != nil {
		return err
	}

	base, err := readDoc(*baseline)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var fresh Doc
	switch fs.NArg() {
	case 0:
		if err := json.NewDecoder(stdin).Decode(&fresh); err != nil {
			return fmt.Errorf("fresh results on stdin: %w", err)
		}
	case 1:
		fresh, err = readDoc(fs.Arg(0))
		if err != nil {
			return fmt.Errorf("fresh results: %w", err)
		}
	default:
		return fmt.Errorf("at most one fresh-results file, got %d args", fs.NArg())
	}

	verdicts := Compare(base.Results, fresh.Results, tol)
	failed := Report(stdout, verdicts)
	if failed > 0 {
		return fmt.Errorf("%d benchmark(s) regressed past tolerance", failed)
	}
	for _, v := range verdicts {
		if v.Base != nil && v.Fresh != nil {
			return nil
		}
	}
	return fmt.Errorf("no fresh result matches a baseline benchmark (%d fresh, %d baseline): nothing was compared",
		len(fresh.Results), len(base.Results))
}

func readDoc(path string) (Doc, error) {
	var d Doc
	b, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return d, err
	}
	return d, nil
}

func key(r Result) string {
	if r.Package == "" {
		return r.Name
	}
	return r.Package + "." + r.Name
}

// Compare joins baseline and fresh results by package-qualified name and
// applies the tolerances. Output is sorted by key, so the report (and the
// exit code) is independent of input order.
func Compare(base, fresh []Result, tol Tolerances) []Verdict {
	baseBy := make(map[string]*Result, len(base))
	for i := range base {
		baseBy[key(base[i])] = &base[i]
	}
	freshBy := make(map[string]*Result, len(fresh))
	for i := range fresh {
		freshBy[key(fresh[i])] = &fresh[i]
	}
	keys := make([]string, 0, len(baseBy)+len(freshBy))
	for k := range baseBy { // key extraction: sorted below
		keys = append(keys, k)
	}
	for k := range freshBy { // key extraction: sorted below
		if _, ok := baseBy[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	out := make([]Verdict, 0, len(keys))
	for _, k := range keys {
		v := Verdict{Key: k, Base: baseBy[k], Fresh: freshBy[k]}
		if v.Base != nil && v.Fresh != nil {
			v.Failures = check(v.Base, v.Fresh, tol)
		}
		out = append(out, v)
	}
	return out
}

func check(base, fresh *Result, tol Tolerances) []string {
	var fails []string
	if tol.NsTol >= 0 && fresh.NsPerOp > base.NsPerOp*(1+tol.NsTol) {
		fails = append(fails, fmt.Sprintf("ns/op %.4g > %.4g (+%.0f%% tolerance)",
			fresh.NsPerOp, base.NsPerOp, tol.NsTol*100))
	}
	// cmd/benchjson omits B/op and allocs/op fields when they are zero, so
	// a zero baseline means "was zero-alloc" — and must stay that way
	// (modulo the constant slack).
	allocLimit := base.AllocsPerOp + int64(float64(base.AllocsPerOp)*tol.AllocsTol) + tol.AllocsSlack
	if fresh.AllocsPerOp > allocLimit {
		fails = append(fails, fmt.Sprintf("allocs/op %d > limit %d (baseline %d)",
			fresh.AllocsPerOp, allocLimit, base.AllocsPerOp))
	}
	if tol.BytesTol >= 0 {
		byteLimit := base.BytesPerOp + int64(float64(base.BytesPerOp)*tol.BytesTol) + tol.BytesSlack
		if fresh.BytesPerOp > byteLimit {
			fails = append(fails, fmt.Sprintf("bytes/op %d > limit %d (baseline %d)",
				fresh.BytesPerOp, byteLimit, base.BytesPerOp))
		}
	}
	return fails
}

// Report renders the comparison table and returns the number of failed
// benchmarks.
func Report(w io.Writer, verdicts []Verdict) int {
	failed := 0
	fmt.Fprintf(w, "%-60s %15s %15s %8s %12s %12s  %s\n",
		"benchmark", "base ns/op", "fresh ns/op", "Δns", "base allocs", "fresh allocs", "verdict")
	for i := range verdicts {
		v := &verdicts[i]
		switch {
		case v.Base == nil:
			fmt.Fprintf(w, "%-60s %15s %15.4g %8s %12s %12d  new (no baseline)\n",
				v.Key, "-", v.Fresh.NsPerOp, "-", "-", v.Fresh.AllocsPerOp)
		case v.Fresh == nil:
			fmt.Fprintf(w, "%-60s %15.4g %15s %8s %12d %12s  not run\n",
				v.Key, v.Base.NsPerOp, "-", "-", v.Base.AllocsPerOp, "-")
		default:
			verdict := "ok"
			if !v.OK() {
				verdict = "FAIL: " + v.Failures[0]
				for _, f := range v.Failures[1:] {
					verdict += "; " + f
				}
				failed++
			}
			fmt.Fprintf(w, "%-60s %15.4g %15.4g %+7.1f%% %12d %12d  %s\n",
				v.Key, v.Base.NsPerOp, v.Fresh.NsPerOp,
				100*(v.Fresh.NsPerOp-v.Base.NsPerOp)/v.Base.NsPerOp,
				v.Base.AllocsPerOp, v.Fresh.AllocsPerOp, verdict)
		}
	}
	return failed
}
