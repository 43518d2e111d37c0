package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

// TestParseStripsProcsSuffix pins that a result recorded at GOMAXPROCS 2
// carries the same name as the committed baseline, which has no suffix.
func TestParseStripsProcsSuffix(t *testing.T) {
	cases := []struct{ line, want string }{
		{"BenchmarkCensusUniform-2   	 1000	 1234 ns/op	 0 B/op	 0 allocs/op", "BenchmarkCensusUniform"},
		{"BenchmarkCensusUniform   	 1000	 1234 ns/op", "BenchmarkCensusUniform"},
		{"BenchmarkRunCores/cores4-16   	 10	 99.5 ns/op", "BenchmarkRunCores/cores4"},
		{"BenchmarkMap/rubix-s   	 10	 99.5 ns/op", "BenchmarkMap/rubix-s"},
	}
	for _, c := range cases {
		r, _, ok := parseBenchLine(c.line, "rubix/internal/dram")
		if !ok {
			t.Fatalf("%q did not parse", c.line)
		}
		if r.Name != c.want {
			t.Errorf("name of %q = %q, want %q", c.line, r.Name, c.want)
		}
	}
	r, procs, _ := parseBenchLine("BenchmarkCensusUniform-2 1000 1234 ns/op 16 B/op 3 allocs/op", "p")
	if r.Iterations != 1000 || r.NsPerOp != 1234 || r.BytesPerOp != 16 || r.AllocsPerOp != 3 || procs != 2 {
		t.Errorf("parsed %+v at GOMAXPROCS %d", r, procs)
	}
}

// TestRecordsHost pins the host object: the header lines of `go test
// -bench`, this process's Go version and CPU count, and the GOMAXPROCS read
// from the first result's -N suffix before it is stripped.
func TestRecordsHost(t *testing.T) {
	in := strings.Join([]string{
		"goos: linux",
		"goarch: amd64",
		"pkg: rubix/internal/dram",
		"cpu: Intel(R) Xeon(R) Processor @ 2.10GHz",
		"BenchmarkCensusUniform-4   	 1000	 1234 ns/op",
		"PASS",
	}, "\n")
	var out bytes.Buffer
	if err := run(strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	var doc Doc
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	want := Host{
		CPU: "Intel(R) Xeon(R) Processor @ 2.10GHz", GOOS: "linux", GOARCH: "amd64",
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: 4,
	}
	if doc.Host != want {
		t.Errorf("host = %+v, want %+v", doc.Host, want)
	}
	if len(doc.Results) != 1 || doc.Results[0].Name != "BenchmarkCensusUniform" {
		t.Errorf("results = %+v", doc.Results)
	}
}
