package main

import "testing"

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
		r, ok := parseBenchLine(c.line, "rubix/internal/dram")
		if !ok {
			t.Fatalf("%q did not parse", c.line)
		}
		if r.Name != c.want {
			t.Errorf("name of %q = %q, want %q", c.line, r.Name, c.want)
		}
	}
	r, _ := parseBenchLine("BenchmarkCensusUniform-2 1000 1234 ns/op 16 B/op 3 allocs/op", "p")
	if r.Iterations != 1000 || r.NsPerOp != 1234 || r.BytesPerOp != 16 || r.AllocsPerOp != 3 {
		t.Errorf("parsed %+v", r)
	}
}
