package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMix64Bijective(t *testing.T) {
	// Mix64 is built from invertible steps; spot-check injectivity over a
	// dense set of structured inputs.
	seen := make(map[uint64]uint64, 1<<16)
	for i := uint64(0); i < 1<<16; i++ {
		v := Mix64(i)
		if prev, dup := seen[v]; dup {
			t.Fatalf("Mix64 collision: Mix64(%d) == Mix64(%d) == %#x", i, prev, v)
		}
		seen[v] = i
	}
}

func TestMix64Avalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	flips := 0
	trials := 0
	for i := uint64(1); i < 1000; i++ {
		base := Mix64(i)
		for b := uint(0); b < 64; b += 7 {
			diff := base ^ Mix64(i^(1<<b))
			flips += popcount(diff)
			trials++
		}
	}
	mean := float64(flips) / float64(trials)
	if mean < 28 || mean > 36 {
		t.Fatalf("avalanche mean %f bits, want ~32", mean)
	}
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestSplitMix64Deterministic(t *testing.T) {
	a, b := NewSplitMix64(7), NewSplitMix64(7)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed must yield the same sequence")
		}
	}
	c := NewSplitMix64(8)
	if NewSplitMix64(7).Next() == c.Next() {
		t.Fatal("different seeds should diverge immediately")
	}
}

func TestXoshiroUint64nRange(t *testing.T) {
	x := NewXoshiro256(1)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := x.Uint64n(n)
		return v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXoshiroUint64nUniform(t *testing.T) {
	x := NewXoshiro256(99)
	const n = 10
	const draws = 100000
	var buckets [n]int
	for i := 0; i < draws; i++ {
		buckets[x.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range buckets {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d has %d draws, want ~%.0f", i, c, want)
		}
	}
}

func TestXoshiroFloat64Range(t *testing.T) {
	x := NewXoshiro256(3)
	for i := 0; i < 100000; i++ {
		v := x.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

// Geometric is the retired per-call sampler, kept as the oracle for
// Geometric.Sample: it recomputes the Log1p(-1/m) divisor on every draw.
func (x *Xoshiro256) Geometric(m float64) int {
	if m <= 1 {
		return 1
	}
	u := x.Float64()
	if u <= 0 {
		u = 1e-18
	}
	p := 1 / m
	k := int(math.Ceil(math.Log(u) / math.Log1p(-p)))
	if k < 1 {
		k = 1
	}
	return k
}

func TestGeometricMean(t *testing.T) {
	x := NewXoshiro256(17)
	for _, mean := range []float64{2, 10, 100, 1000} {
		g := NewGeometric(mean)
		sum := 0
		const draws = 200000
		for i := 0; i < draws; i++ {
			sum += g.Sample(x)
		}
		got := float64(sum) / draws
		if got < 0.93*mean || got > 1.07*mean {
			t.Fatalf("Geometric(%v) sample mean %v, want within 7%%", mean, got)
		}
	}
}

func TestGeometricMinimumOne(t *testing.T) {
	x := NewXoshiro256(4)
	g := NewGeometric(1.5)
	for i := 0; i < 10000; i++ {
		if g.Sample(x) < 1 {
			t.Fatal("Geometric must return >= 1")
		}
	}
	if NewGeometric(0.5).Sample(x) != 1 {
		t.Fatal("mean <= 1 must return exactly 1")
	}
	var zero Geometric
	if zero.Sample(x) != 1 {
		t.Fatal("the zero Geometric must return exactly 1")
	}
}

// BenchmarkGeometricSample draws mcf's miss gap (MPKI 5.81).
func BenchmarkGeometricSample(b *testing.B) {
	x := NewXoshiro256(1)
	g := NewGeometric(1000 / 5.81)
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink ^= g.Sample(x)
	}
	_ = sink
}

func TestZipfSkew(t *testing.T) {
	x := NewXoshiro256(5)
	z := NewZipf(x, 100, 1.0)
	counts := make([]int, 100)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	// With s=1 the top rank should draw roughly twice rank 2 and far more
	// than rank 50.
	if counts[0] < counts[1] {
		t.Fatalf("rank 0 (%d) should beat rank 1 (%d)", counts[0], counts[1])
	}
	ratio := float64(counts[0]) / float64(counts[49]+1)
	if ratio < 25 {
		t.Fatalf("rank0/rank49 ratio %v, want ~50 for s=1", ratio)
	}
}

func TestZipfCoversDomain(t *testing.T) {
	x := NewXoshiro256(6)
	z := NewZipf(x, 8, 0.2)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := z.Next()
		if v < 0 || v >= 8 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Fatalf("low-skew Zipf over 8 ranks should hit all of them, got %d", len(seen))
	}
}

func TestPanics(t *testing.T) {
	x := NewXoshiro256(1)
	for name, f := range map[string]func(){
		"Uint64n(0)": func() { x.Uint64n(0) },
		"Intn(0)":    func() { x.Intn(0) },
		"NewZipf(0)": func() { NewZipf(x, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			f()
		}()
	}
}
