package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func defaults() Tolerances {
	return Tolerances{NsTol: 0.75, AllocsTol: 0.05, AllocsSlack: 3, BytesTol: 0.30, BytesSlack: 4096}
}

func one(verdicts []Verdict, t *testing.T) *Verdict {
	t.Helper()
	if len(verdicts) != 1 {
		t.Fatalf("got %d verdicts, want 1", len(verdicts))
	}
	return &verdicts[0]
}

func TestCompareWithinTolerancePasses(t *testing.T) {
	base := []Result{{Name: "BenchmarkX", Package: "p", NsPerOp: 1000, BytesPerOp: 100, AllocsPerOp: 10}}
	fresh := []Result{{Name: "BenchmarkX", Package: "p", NsPerOp: 1700, BytesPerOp: 120, AllocsPerOp: 10}}
	v := one(Compare(base, fresh, defaults()), t)
	if !v.OK() {
		t.Fatalf("within-tolerance run failed: %v", v.Failures)
	}
}

func TestCompareNsRegressionFails(t *testing.T) {
	base := []Result{{Name: "BenchmarkX", NsPerOp: 1000}}
	fresh := []Result{{Name: "BenchmarkX", NsPerOp: 1800}}
	v := one(Compare(base, fresh, defaults()), t)
	if v.OK() {
		t.Fatal("+80% ns/op passed a +75% gate")
	}
	if !strings.Contains(v.Failures[0], "ns/op") {
		t.Fatalf("failure not attributed to ns/op: %v", v.Failures)
	}
}

func TestCompareNsDisabled(t *testing.T) {
	tol := defaults()
	tol.NsTol = -1
	base := []Result{{Name: "BenchmarkX", NsPerOp: 1000}}
	fresh := []Result{{Name: "BenchmarkX", NsPerOp: 9000}}
	if v := one(Compare(base, fresh, tol), t); !v.OK() {
		t.Fatalf("ns check disabled but still failed: %v", v.Failures)
	}
}

func TestCompareAllocsStrict(t *testing.T) {
	// 5% of 100 = 5, slack 3 → limit 108.
	base := []Result{{Name: "BenchmarkX", NsPerOp: 1, AllocsPerOp: 100}}
	ok := []Result{{Name: "BenchmarkX", NsPerOp: 1, AllocsPerOp: 108}}
	bad := []Result{{Name: "BenchmarkX", NsPerOp: 1, AllocsPerOp: 109}}
	if v := one(Compare(base, ok, defaults()), t); !v.OK() {
		t.Fatalf("allocs at the limit failed: %v", v.Failures)
	}
	if v := one(Compare(base, bad, defaults()), t); v.OK() {
		t.Fatal("allocs one past the limit passed")
	}
}

func TestCompareZeroAllocBaselineStaysZeroAlloc(t *testing.T) {
	// benchjson omits allocs_per_op when zero; a zero-alloc baseline only
	// tolerates the constant slack.
	base := []Result{{Name: "BenchmarkHot", NsPerOp: 5}}
	ok := []Result{{Name: "BenchmarkHot", NsPerOp: 5, AllocsPerOp: 3}}
	bad := []Result{{Name: "BenchmarkHot", NsPerOp: 5, AllocsPerOp: 4}}
	if v := one(Compare(base, ok, defaults()), t); !v.OK() {
		t.Fatalf("slack-sized alloc count failed: %v", v.Failures)
	}
	if v := one(Compare(base, bad, defaults()), t); v.OK() {
		t.Fatal("zero-alloc baseline regressed past slack but passed")
	}
}

func TestCompareBytesRegressionFails(t *testing.T) {
	base := []Result{{Name: "BenchmarkX", NsPerOp: 1, BytesPerOp: 1 << 20}}
	fresh := []Result{{Name: "BenchmarkX", NsPerOp: 1, BytesPerOp: 2 << 20}}
	v := one(Compare(base, fresh, defaults()), t)
	if v.OK() {
		t.Fatal("2x bytes/op passed a +30% gate")
	}
	if !strings.Contains(v.Failures[0], "bytes/op") {
		t.Fatalf("failure not attributed to bytes/op: %v", v.Failures)
	}
}

func TestCompareMissingCounterpartsNeverFail(t *testing.T) {
	base := []Result{{Name: "BenchmarkOld", NsPerOp: 1}}
	fresh := []Result{{Name: "BenchmarkNew", NsPerOp: 1}}
	verdicts := Compare(base, fresh, defaults())
	if len(verdicts) != 2 {
		t.Fatalf("got %d verdicts, want 2", len(verdicts))
	}
	for _, v := range verdicts {
		if !v.OK() {
			t.Fatalf("missing counterpart failed the gate: %s %v", v.Key, v.Failures)
		}
	}
}

func TestCompareSortedOutput(t *testing.T) {
	base := []Result{
		{Name: "BenchmarkB", Package: "z", NsPerOp: 1},
		{Name: "BenchmarkA", Package: "a", NsPerOp: 1},
	}
	verdicts := Compare(base, base, defaults())
	if verdicts[0].Key != "a.BenchmarkA" || verdicts[1].Key != "z.BenchmarkB" {
		t.Fatalf("verdicts not sorted: %s, %s", verdicts[0].Key, verdicts[1].Key)
	}
}

func TestReportCountsFailures(t *testing.T) {
	base := []Result{
		{Name: "BenchmarkOK", NsPerOp: 100, AllocsPerOp: 1},
		{Name: "BenchmarkBad", NsPerOp: 100, AllocsPerOp: 1},
	}
	fresh := []Result{
		{Name: "BenchmarkOK", NsPerOp: 100, AllocsPerOp: 1},
		{Name: "BenchmarkBad", NsPerOp: 100, AllocsPerOp: 500},
	}
	var buf bytes.Buffer
	failed := Report(&buf, Compare(base, fresh, defaults()))
	if failed != 1 {
		t.Fatalf("failed = %d, want 1", failed)
	}
	out := buf.String()
	if !strings.Contains(out, "FAIL") || !strings.Contains(out, "BenchmarkBad") {
		t.Fatalf("report missing failure line:\n%s", out)
	}
}

func writeDoc(t *testing.T, dir, name string, d Doc) string {
	t.Helper()
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	basePath := writeDoc(t, dir, "base.json", Doc{Results: []Result{
		{Name: "BenchmarkX", Package: "p", NsPerOp: 1000, AllocsPerOp: 10},
	}})

	freshOK, err := json.Marshal(Doc{Results: []Result{
		{Name: "BenchmarkX", Package: "p", NsPerOp: 900, AllocsPerOp: 10},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-baseline", basePath}, bytes.NewReader(freshOK), &out); err != nil {
		t.Fatalf("clean run failed: %v\n%s", err, out.String())
	}

	freshBad := writeDoc(t, dir, "fresh.json", Doc{Results: []Result{
		{Name: "BenchmarkX", Package: "p", NsPerOp: 900, AllocsPerOp: 999},
	}})
	out.Reset()
	err = run([]string{"-baseline", basePath, freshBad}, strings.NewReader(""), &out)
	if err == nil {
		t.Fatalf("regressed run passed:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestRunMissingBaseline(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-baseline", filepath.Join(t.TempDir(), "nope.json")}, strings.NewReader("{}"), &out)
	if err == nil {
		t.Fatal("missing baseline accepted")
	}
}

// TestRunNothingMatchedFails pins that a fresh run sharing no benchmark
// with the baseline (say, names still carrying a -N GOMAXPROCS suffix) is
// an error, not a clean pass.
func TestRunNothingMatchedFails(t *testing.T) {
	dir := t.TempDir()
	basePath := writeDoc(t, dir, "base.json", Doc{Results: []Result{
		{Name: "BenchmarkX", Package: "p", NsPerOp: 1000, AllocsPerOp: 10},
	}})
	fresh, err := json.Marshal(Doc{Results: []Result{
		{Name: "BenchmarkX-2", Package: "p", NsPerOp: 1000, AllocsPerOp: 10},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = run([]string{"-baseline", basePath}, bytes.NewReader(fresh), &out)
	if err == nil || !strings.Contains(err.Error(), "no fresh result matches") {
		t.Fatalf("unmatched run: err = %v, want a no-match error\n%s", err, out.String())
	}
}

// TestRunReportsHosts pins that both hosts are printed, and that the
// warning appears exactly when they differ.
func TestRunReportsHosts(t *testing.T) {
	host := Host{CPU: "Xeon", GOOS: "linux", GOARCH: "amd64", GoVersion: "go1.24.0", NumCPU: 2, GOMAXPROCS: 2}
	results := []Result{{Name: "BenchmarkX", Package: "p", NsPerOp: 1000, AllocsPerOp: 10}}
	basePath := writeDoc(t, t.TempDir(), "base.json", Doc{Host: host, Results: results})
	other := host
	other.NumCPU, other.GOMAXPROCS = 8, 8
	for _, c := range []struct {
		fresh Host
		warn  bool
	}{{host, false}, {other, true}, {Host{}, true}} {
		fresh, err := json.Marshal(Doc{Host: c.fresh, Results: results})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := run([]string{"-baseline", basePath}, bytes.NewReader(fresh), &out); err != nil {
			t.Fatalf("run: %v\n%s", err, out.String())
		}
		got := out.String()
		if !strings.Contains(got, "baseline host: "+host.String()+"\n") || !strings.Contains(got, "fresh host:    "+c.fresh.String()+"\n") {
			t.Errorf("hosts not printed:\n%s", got)
		}
		if warned := strings.Contains(got, "warning: the hosts differ"); warned != c.warn {
			t.Errorf("fresh host %v: warned = %v, want %v\n%s", c.fresh, warned, c.warn, got)
		}
	}
}
