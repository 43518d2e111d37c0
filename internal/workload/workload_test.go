package workload

import (
	"testing"

	"rubix/internal/rng"
)

// must unwraps constructor results; tests treat construction failure as a
// fatal setup bug.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func TestStreamSequentialWraps(t *testing.T) {
	s := must(NewStream(100, 4))
	want := []uint64{100, 101, 102, 103, 100, 101}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("access %d = %d, want %d", i, got, w)
		}
	}
	if !s.InBurst() {
		t.Fatal("stream is always prefetchable")
	}
}

func TestStrideVisitsOneLinePerStride(t *testing.T) {
	// Stride 64 over 256 lines: pages at 0, 64, 128, 192, then offset 1.
	s := must(NewStride(0, 256, 64))
	want := []uint64{0, 64, 128, 192, 1, 65}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("access %d = %d, want %d", i, got, w)
		}
	}
}

func TestStrideCoversAllLines(t *testing.T) {
	s := must(NewStride(0, 64, 8))
	seen := map[uint64]int{}
	for i := 0; i < 64; i++ {
		seen[s.Next()]++
	}
	if len(seen) != 64 {
		t.Fatalf("one full cycle visited %d/64 lines", len(seen))
	}
}

func TestRandomStaysInFootprint(t *testing.T) {
	r := must(NewRandom(1000, 50, 1))
	for i := 0; i < 10000; i++ {
		a := r.Next()
		if a < 1000 || a >= 1050 {
			t.Fatalf("address %d outside [1000, 1050)", a)
		}
	}
}

func TestSpecFootprintBounds(t *testing.T) {
	p, err := SpecByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	g := must(NewSpec(p, 1<<20, 7))
	lines := uint64(p.Pages) * PageLines
	for i := 0; i < 200000; i++ {
		a := g.Next()
		if a < 1<<20 || a >= 1<<20+lines {
			t.Fatalf("gcc access %#x escaped its footprint", a)
		}
	}
}

func TestSpecAccessSharesMatchWeights(t *testing.T) {
	// With burst-length weighting, the share of accesses landing in the
	// hot set should approximate WHot.
	p := SpecParams{
		Name: "synthetic", MPKI: 1, Pages: 1000,
		WStream: 0.25, WRandom: 0.25, WHot: 0.50,
		HotPages: 100, ZipfS: 0.3, BurstLen: 16, HotBurst: 1, MLP: 4,
	}
	g := must(NewSpec(p, 0, 3))
	hotPages := map[uint64]bool{}
	for _, off := range g.hotOff {
		hotPages[off] = true
	}
	inHot := 0
	const draws = 300000
	for i := 0; i < draws; i++ {
		page := g.Next() / PageLines
		if hotPages[page] {
			inHot++
		}
	}
	share := float64(inHot) / draws
	// Hot pages also receive a sliver of stream/random traffic (100/1000
	// pages ≈ +5% of the other half), so expect ~0.52-0.58.
	if share < 0.45 || share > 0.68 {
		t.Fatalf("hot-set access share %.2f, want ~0.55", share)
	}
}

func TestSpecBurstsAreSequential(t *testing.T) {
	p := SpecParams{Name: "x", MPKI: 1, Pages: 100, WRandom: 1, BurstLen: 8, MLP: 4}
	g := must(NewSpec(p, 0, 5))
	prev := g.Next()
	seqSteps, total := 0, 0
	for i := 0; i < 10000; i++ {
		inBurst := g.InBurst()
		a := g.Next()
		if inBurst {
			total++
			if a == prev+1 || (a == 0 && prev != 0) { // sequential modulo wrap
				seqSteps++
			}
		}
		prev = a
	}
	if total == 0 {
		t.Fatal("no in-burst accesses seen")
	}
	if frac := float64(seqSteps) / float64(total); frac < 0.95 {
		t.Fatalf("only %.2f of in-burst steps were sequential", frac)
	}
}

func TestSpecDeterminism(t *testing.T) {
	p, _ := SpecByName("mcf")
	a := must(NewSpec(p, 0, 42))
	b := must(NewSpec(p, 0, 42))
	for i := 0; i < 10000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed must replay identically")
		}
	}
}

func TestSpecTableComplete(t *testing.T) {
	table := SpecTable()
	if len(table) != 18 {
		t.Fatalf("SPEC table has %d workloads, want the paper's 18", len(table))
	}
	seen := map[string]bool{}
	for _, p := range table {
		if p.Pages <= 0 || p.MPKI <= 0 {
			t.Errorf("%s: non-positive footprint or MPKI", p.Name)
		}
		if p.MLP < 1 {
			t.Errorf("%s: MLP %v < 1", p.Name, p.MLP)
		}
		if seen[p.Name] {
			t.Errorf("duplicate workload %s", p.Name)
		}
		seen[p.Name] = true
	}
	if _, err := SpecByName("lbm"); err != nil {
		t.Error(err)
	}
	if _, err := SpecByName("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestMixTableValid(t *testing.T) {
	for i, mix := range MixTable() {
		for _, name := range mix {
			if _, err := SpecByName(name); err != nil {
				t.Errorf("mix%d references unknown workload %s", i+1, name)
			}
		}
	}
	if len(MixNames()) != 16 {
		t.Fatal("want 16 mixes")
	}
}

func TestStreamSuiteKernels(t *testing.T) {
	for k := StreamCopy; k <= StreamTriad; k++ {
		s := must(NewStreamSuite(k, 0, 1<<20)) // 16K lines per array
		seen := map[uint64]bool{}
		arrays := k.arrays()
		for i := 0; i < 1000; i++ {
			a := s.Next()
			seen[a/(1<<20/64)] = true
			if a >= uint64(arrays)<<20/64 {
				t.Fatalf("%v accessed beyond its arrays", k)
			}
		}
		if len(seen) != arrays {
			t.Fatalf("%v touched %d arrays, want %d", k, len(seen), arrays)
		}
	}
}

func TestStreamSuiteBlocksAreSequential(t *testing.T) {
	s := must(NewStreamSuite(StreamCopy, 0, 1<<20))
	// First streamBlock accesses hit array 0 sequentially.
	for i := uint64(0); i < streamBlock; i++ {
		if got := s.Next(); got != i {
			t.Fatalf("block access %d = %d", i, got)
		}
	}
	// Next streamBlock hit array 1 at the same offsets.
	arrLines := uint64(1 << 20 / 64)
	for i := uint64(0); i < streamBlock; i++ {
		if got := s.Next(); got != arrLines+i {
			t.Fatalf("array-1 block access %d = %d", i, got)
		}
	}
}

func TestAttackRoundRobinsAggressors(t *testing.T) {
	resolve := func(row uint64, slot int) uint64 { return row*128 + uint64(slot) }
	a := must(NewAttack("double-sided", []uint64{10, 20}, resolve))
	r1 := a.Next() / 128
	r2 := a.Next() / 128
	r3 := a.Next() / 128
	if r1 != 10 || r2 != 20 || r3 != 10 {
		t.Fatalf("rows = %d,%d,%d; want 10,20,10", r1, r2, r3)
	}
	if a.InBurst() {
		t.Fatal("hammering accesses must not overlap")
	}
}

func TestProfileGeneratorsImplementInterface(t *testing.T) {
	var _ Generator = (*Stream)(nil)
	var _ Generator = (*Stride)(nil)
	var _ Generator = (*Random)(nil)
	var _ Generator = (*Spec)(nil)
	var _ Generator = (*StreamSuite)(nil)
	var _ Generator = (*Attack)(nil)
}

func TestHotBurstDefaults(t *testing.T) {
	p := SpecParams{Name: "x", MPKI: 1, Pages: 10, WHot: 1, HotPages: 5, BurstLen: 16, MLP: 1}
	g := must(NewSpec(p, 0, 1))
	if g.hotLen != rng.NewGeometric(4) {
		t.Fatalf("hot burst sampler = %+v, want mean BurstLen/4", g.hotLen)
	}
	// BurstLen/4 = 0.5 floors to 1, in the sampler and in the hot weight:
	// stream weight 1/2 and hot weight 1/1 give a stream share of 1/3.
	p.BurstLen = 2
	p.WStream = 1
	g2 := must(NewSpec(p, 0, 1))
	if g2.hotLen != rng.NewGeometric(1) || g2.cw[0] != 0.5/1.5 {
		t.Fatalf("hot burst floor: sampler %+v, stream share %v, want mean 1 and 1/3", g2.hotLen, g2.cw[0])
	}
}

func TestZipfHeadGetsMoreTraffic(t *testing.T) {
	p := SpecParams{
		Name: "x", MPKI: 1, Pages: 1000, WHot: 1,
		HotPages: 50, ZipfS: 0.8, BurstLen: 4, HotBurst: 1, MLP: 1,
	}
	g := must(NewSpec(p, 0, 9))
	counts := map[uint64]int{}
	for i := 0; i < 100000; i++ {
		counts[g.Next()/PageLines]++
	}
	head := counts[g.hotOff[0]]
	tail := counts[g.hotOff[len(g.hotOff)-1]]
	if head <= tail {
		t.Fatalf("zipf head (%d) should beat tail (%d)", head, tail)
	}
}

func TestConstructorsRejectEmptyFootprints(t *testing.T) {
	if _, err := NewStream(0, 0); err == nil {
		t.Error("NewStream accepted zero lines")
	}
	if _, err := NewStride(0, 0, 8); err == nil {
		t.Error("NewStride accepted zero lines")
	}
	if _, err := NewStride(0, 64, 0); err == nil {
		t.Error("NewStride accepted zero stride")
	}
	if _, err := NewRandom(0, 0, 1); err == nil {
		t.Error("NewRandom accepted zero lines")
	}
	if _, err := NewSpec(SpecParams{Name: "empty"}, 0, 1); err == nil {
		t.Error("NewSpec accepted an empty footprint")
	}
	if _, err := NewStreamSuite(StreamCopy, 0, 63); err == nil {
		t.Error("NewStreamSuite accepted a sub-line array")
	}
	if _, err := NewAttack("x", nil, nil); err == nil {
		t.Error("NewAttack accepted zero aggressors")
	}
}

// BenchmarkSpecNext is the per-access cost of a SPEC stand-in: mcf draws
// short bursts over a large hot set, cactuBSSN longer ones.
func BenchmarkSpecNext(b *testing.B) {
	for _, name := range []string{"mcf", "cactuBSSN"} {
		b.Run(name, func(b *testing.B) {
			p := must(SpecByName(name))
			g := must(NewSpec(p, 0, 1))
			b.ReportAllocs()
			b.ResetTimer()
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink ^= g.Next()
			}
			_ = sink
		})
	}
}
