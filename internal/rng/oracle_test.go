package rng_test

import (
	"math"
	"testing"

	"rubix/internal/rng"
	"rubix/internal/workload"
)

// oracleMeans are the means TestGeometricMatchesOracle replays: the edges of
// the m <= 1 rule, small burst-length means, every SPEC profile's miss-gap
// mean 1000/MPKI and burst-length means, and huge ones.
func oracleMeans() []float64 {
	ms := []float64{0.5, 1, 1 + 1e-9, 1.5, 2, 3, 8, 1e6, math.Inf(1)}
	for _, p := range workload.SpecTable() {
		ms = append(ms, 1000/p.MPKI, p.BurstLen, p.BurstLen/2, p.HotBurst)
	}
	return ms
}

// TestGeometricMatchesOracle replays the fixed-mean sampler against the
// retired per-call (*Xoshiro256).Geometric on identically seeded
// generators: the draws and the generator state after them must be equal,
// which also proves that a mean <= 1 consumes no draw.
func TestGeometricMatchesOracle(t *testing.T) {
	const draws = 100000
	for _, m := range oracleMeans() {
		g := rng.NewGeometric(m)
		a, b := rng.NewXoshiro256(23), rng.NewXoshiro256(23)
		for i := 0; i < draws; i++ {
			if got, want := g.Sample(a), b.Geometric(m); got != want {
				t.Fatalf("mean %v draw %d: Sample = %d, oracle = %d", m, i, got, want)
			}
		}
		if *a != *b {
			t.Fatalf("mean %v: generator states diverged after %d draws", m, draws)
		}
		if m <= 1 && *a != *rng.NewXoshiro256(23) {
			t.Fatalf("mean %v: a mean <= 1 must draw nothing", m)
		}
	}
}
