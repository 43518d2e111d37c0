package sim

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// renderResult formats everything observable about a run into one string so
// two runs can be compared byte-for-byte. DRAM is dereferenced (a pointer
// would print its address) and Latency histograms stay disabled, so every
// field is plain value data.
func renderResult(r *Result) string {
	return fmt.Sprintf("cfg=%s map=%s mit=%s ipc=%v mean=%v elapsed=%v dram=%+v mit=%d swaps=%d power=%v wl=%v",
		r.Config, r.Mapping, r.Mitigation, r.IPC, r.MeanIPC, r.ElapsedNs,
		*r.DRAM, r.Mitigations, r.RemapSwaps, r.PowerMW, r.WorkloadNames)
}

// TestPrefetchConcurrent drives the Suite cache from many goroutines at once
// — both through Prefetch's worker fan-out and through direct racing Run
// calls on overlapping keys — so `go test -race` can observe any unsynchronized
// access in the cache or the per-entry once. Every caller must get the same
// cached *Result for a given key.
func TestPrefetchConcurrent(t *testing.T) {
	base := runtime.NumGoroutine()
	s := NewSuite(Options{Scale: 0.004, Workloads: []string{"mcf", "xz"}, Mixes: []int{}, Seed: 17})
	specs := []RunSpec{
		{"mcf", "coffeelake", "none", 1000, false},
		{"mcf", "rubixs-gs1", "none", 1000, false},
		{"xz", "coffeelake", "none", 1000, false},
		{"xz", "rubixs-gs1", "none", 1000, false},
	}
	if err := s.Prefetch(specs); err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, base)

	// Race direct Run calls over the (now warm) cache plus one cold spec, with
	// parallelism strictly greater than one regardless of GOMAXPROCS.
	const callers = 8
	cold := RunSpec{"mcf", "sequential", "none", 1000, false}
	all := append(append([]RunSpec(nil), specs...), cold)
	results := make([][]*Result, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, k := range all {
				res, err := s.Run(k)
				if err != nil {
					t.Errorf("caller %d: %v", c, err)
					return
				}
				results[c] = append(results[c], res)
			}
		}(c)
	}
	wg.Wait()
	for c := 1; c < callers; c++ {
		if len(results[c]) != len(results[0]) {
			t.Fatalf("caller %d saw %d results, caller 0 saw %d", c, len(results[c]), len(results[0]))
		}
		for i := range results[c] {
			if results[c][i] != results[0][i] {
				t.Errorf("caller %d key %d: got a different *Result than caller 0 — cache returned a duplicate run", c, i)
			}
		}
	}
}

// TestDeterministicReplayBytes runs the same configuration twice from fresh
// suites with identical seeds and requires byte-identical statistics —
// stronger than TestDeterministicReplay's field spot-checks. This is the
// contract the determinism analyzer (internal/lint) enforces statically:
// no wall-clock, no global RNG, no map-order leakage.
func TestDeterministicReplayBytes(t *testing.T) {
	run := func() string {
		s := NewSuite(Options{Scale: 0.004, Workloads: []string{"mcf"}, Mixes: []int{}, Seed: 29})
		res, err := s.Run(RunSpec{Workload: "mcf", Mapping: "rubixd-gs2", Mitigation: "aqua", TRH: 1000, LineCensus: true})
		if err != nil {
			t.Fatal(err)
		}
		return renderResult(res)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("identical seeds produced different stats:\n run 1: %s\n run 2: %s", a, b)
	}
}

// settleGoroutines fails the test unless the goroutine count falls back to
// base within two seconds. Run it after the code under test has been shut
// down: a goroutine still running then has leaked.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines still running, %d before the test:\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
