// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the simulator. All state is explicit: there are
// no package-level generators, so two simulations constructed with the same
// seeds replay identically regardless of goroutine scheduling.
//
// Two generators are provided:
//
//   - SplitMix64: a tiny 64-bit generator, also used to seed others and as a
//     keyed bit mixer (its finalizer is a high-quality 64→64 hash).
//   - Xoshiro256: xoshiro256**, the main workhorse for workload generation.
package rng

import "math"

// SplitMix64 is the splitmix64 generator of Steele, Lea, and Flood. The zero
// value is a valid generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return Mix64(s.state)
}

// Mix64 applies the splitmix64 finalizer to x. It is a bijective 64-bit
// mixing function with excellent avalanche behaviour, usable as a keyed hash
// via Mix64(x ^ key).
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Xoshiro256 is the xoshiro256** generator of Blackman and Vigna.
type Xoshiro256 struct {
	s [4]uint64
}

// NewXoshiro256 returns a generator whose state is derived from seed via
// SplitMix64, as recommended by the xoshiro authors. Any seed, including 0,
// yields a valid non-degenerate state.
func NewXoshiro256(seed uint64) *Xoshiro256 {
	sm := NewSplitMix64(seed)
	var x Xoshiro256
	for i := range x.s {
		x.s[i] = sm.Next()
	}
	return &x
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Next returns the next 64-bit value in the sequence.
func (x *Xoshiro256) Next() uint64 {
	result := rotl(x.s[1]*5, 7) * 9
	t := x.s[1] << 17
	x.s[2] ^= x.s[0]
	x.s[3] ^= x.s[1]
	x.s[1] ^= x.s[2]
	x.s[0] ^= x.s[3]
	x.s[2] ^= t
	x.s[3] = rotl(x.s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (x *Xoshiro256) Uint64n(n uint64) uint64 {
	if n == 0 {
		//lint:allow panicpolicy programmer-error guard on the hot sampling path, mirroring math/rand's contract
		panic("rng: Uint64n with n == 0")
	}
	// Plain rejection keeps the distribution exactly uniform and is simple
	// to verify. The retry probability is below 1/2 per iteration.
	max := ^uint64(0) - ^uint64(0)%n
	for {
		v := x.Next()
		if v < max {
			return v % n
		}
	}
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (x *Xoshiro256) Intn(n int) int {
	if n <= 0 {
		//lint:allow panicpolicy programmer-error guard on the hot sampling path, mirroring math/rand's contract
		panic("rng: Intn with n <= 0")
	}
	return int(x.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (x *Xoshiro256) Float64() float64 {
	return float64(x.Next()>>11) / (1 << 53)
}

// Geometric samples the geometric distribution with a fixed mean m (number
// of trials until the first success, minimum 1). It is used for miss
// inter-arrival gaps — a workload with MPKI k has mean gap 1000/k — and for
// burst lengths. The mean is fixed for the life of a core or workload, so
// the Log1p(-1/m) divisor is computed once, in NewGeometric, not per draw.
// The zero value always samples 1.
type Geometric struct {
	logq float64 // Log1p(-1/m)
	draw bool    // m > 1; otherwise every sample is 1
}

// NewGeometric returns the sampler for mean m. A mean m <= 1 yields a
// sampler that always returns 1 and draws nothing from the generator.
func NewGeometric(m float64) Geometric {
	if m <= 1 {
		return Geometric{}
	}
	return Geometric{logq: math.Log1p(-(1 / m)), draw: true}
}

// Sample draws one value, consuming one Float64 from x unless the mean is
// at most 1.
//
// hot: one call per simulated miss and per workload burst.
func (g Geometric) Sample(x *Xoshiro256) int {
	if !g.draw {
		return 1
	}
	u := x.Float64()
	if u <= 0 {
		u = 1e-18
	}
	k := int(math.Ceil(math.Log(u) / g.logq))
	if k < 1 {
		k = 1
	}
	return k
}

// Zipf samples from a bounded Zipf distribution over [0, n) with exponent
// s > 0 via inverse-CDF lookup on a precomputed table. Rank 0 is the most
// popular element. Memory is O(n); intended for n up to a few million.
type Zipf struct {
	cdf []float64
	rng *Xoshiro256
}

// NewZipf builds a Zipf sampler over [0, n) with exponent s, driven by r.
// It panics if n < 1.
func NewZipf(r *Xoshiro256, n int, s float64) *Zipf {
	if n < 1 {
		//lint:allow panicpolicy programmer-error guard, mirroring math/rand's Zipf contract
		panic("rng: NewZipf with n < 1")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, rng: r}
}

// Next returns the next Zipf-distributed rank in [0, n).
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
