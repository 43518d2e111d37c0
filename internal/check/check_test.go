package check

import (
	"strings"
	"sync"
	"testing"

	"rubix/internal/core"
	"rubix/internal/geom"
	"rubix/internal/mapping"
)

func smallGeom(t testing.TB) geom.Geometry {
	t.Helper()
	g, err := geom.New(1, 1, 2, 64, 512, 64) // 1024 lines, 8 lines/row
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// tinyRubixDGeom is small enough that one epoch is 8 remap episodes.
func tinyRubixDGeom(t testing.TB) geom.Geometry {
	t.Helper()
	g, err := geom.New(1, 1, 1, 8, 256, 64) // 32 lines, 4 lines/row, 3 row-addr bits
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNilCheckerHooksAreSafe(t *testing.T) {
	var c *Checker
	c.AttachMapper(geom.Geometry{}, nil)
	c.AttachFullMapper(geom.Geometry{}, nil)
	c.OnMap(1, 2)
	c.OnControllerACT()
	c.OnCensusACT(true)
	c.OnWindowClose(3)
	c.OnBankACT(0, 1, 45)
	c.OnRefresh(0, 7800, 7800)
	c.OnRemapStep(0, 1, false)
	c.OnRunEnd(0, 0)
	if c.Err() != nil || c.Checks() != 0 || c.Violations() != nil {
		t.Fatal("nil checker must be inert")
	}
}

// badInverter round-trips wrongly: Unmap is off by one. Its batch surface
// is a faithful scalar loop, so only the bijection check fires on it.
type badInverter struct{}

func (badInverter) Name() string             { return "BadInverter" }
func (badInverter) Map(line uint64) uint64   { return line }
func (badInverter) Unmap(phys uint64) uint64 { return phys + 1 }
func (m badInverter) MapBatch(lines, phys []uint64) {
	for i, l := range lines {
		phys[i] = m.Map(l)
	}
}
func (m badInverter) UnmapBatch(phys, lines []uint64) {
	for i, p := range phys {
		lines[i] = m.Unmap(p)
	}
}

func TestBijectionRoundTripViolation(t *testing.T) {
	c := New(Config{SampleEvery: 1})
	c.AttachFullMapper(smallGeom(t), badInverter{})
	c.OnMap(5, 5)
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "bijection") {
		t.Fatalf("want bijection violation, got %v", err)
	}
}

// divergingBatch has a correct scalar surface (identity, self-inverse) but a
// MapBatch that disagrees with Map on every element — the failure class the
// batch≡scalar spot check exists for.
type divergingBatch struct{}

func (divergingBatch) Name() string             { return "DivergingBatch" }
func (divergingBatch) Map(line uint64) uint64   { return line }
func (divergingBatch) Unmap(phys uint64) uint64 { return phys }
func (divergingBatch) MapBatch(lines, phys []uint64) {
	for i, l := range lines {
		phys[i] = l ^ 1
	}
}
func (divergingBatch) UnmapBatch(phys, lines []uint64) {
	copy(lines, phys)
}

func TestBatchScalarDivergenceViolation(t *testing.T) {
	c := New(Config{SampleEvery: 1})
	c.AttachFullMapper(smallGeom(t), divergingBatch{})
	c.OnMap(5, 5)
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "batch") {
		t.Fatalf("want batch violation, got %v", err)
	}
}

// escapingMapper maps outside [0, TotalLines()).
type escapingMapper struct{ total uint64 }

func (m escapingMapper) Name() string           { return "Escaping" }
func (m escapingMapper) Map(line uint64) uint64 { return m.total + line }

func TestBijectionRangeViolation(t *testing.T) {
	g := smallGeom(t)
	c := New(Config{SampleEvery: 1})
	c.AttachMapper(g, escapingMapper{total: g.TotalLines()})
	c.OnMap(0, g.TotalLines())
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "escapes") {
		t.Fatalf("want range violation, got %v", err)
	}
}

// constantMapper collides everything onto physical line 0. It deliberately
// does not implement Inverter, so only the collision window can catch it.
type constantMapper struct{}

func (constantMapper) Name() string           { return "Constant" }
func (constantMapper) Map(line uint64) uint64 { return 0 }

func TestCollisionWindowDetectsDuplicatePhys(t *testing.T) {
	c := New(Config{SampleEvery: 1})
	c.AttachMapper(smallGeom(t), constantMapper{})
	c.OnMap(1, 0)
	c.OnMap(2, 0)
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "collision") {
		t.Fatalf("want collision violation, got %v", err)
	}
}

func TestCollisionWindowAllowsRepeatedLine(t *testing.T) {
	c := New(Config{SampleEvery: 1})
	c.AttachMapper(smallGeom(t), constantMapper{})
	c.OnMap(1, 0)
	c.OnMap(1, 0) // same line again: not a collision
	if err := c.Err(); err != nil {
		t.Fatalf("repeated identical mapping flagged: %v", err)
	}
}

func TestRemapStepFlushesCollisionWindow(t *testing.T) {
	c := New(Config{SampleEvery: 1})
	c.AttachMapper(smallGeom(t), constantMapper{})
	c.OnMap(1, 0)
	c.OnRemapStep(0, 1, false) // dynamic mapper moved rows: window resets
	c.OnMap(2, 0)
	if err := c.Err(); err != nil {
		t.Fatalf("cross-remap collision flagged: %v", err)
	}
}

func TestConservationClean(t *testing.T) {
	c := New(Config{})
	for i := 0; i < 10; i++ {
		c.OnControllerACT()
		c.mitActs++ // as CheckedMitigator.OnACT would
		c.OnCensusACT(true)
	}
	c.OnCensusACT(false)
	c.OnWindowClose(11)
	c.OnRunEnd(10, 1)
	if err := c.Err(); err != nil {
		t.Fatalf("clean ledger flagged: %v", err)
	}
}

func TestConservationMismatch(t *testing.T) {
	c := New(Config{})
	c.OnControllerACT()
	c.OnControllerACT()
	c.mitActs = 2
	c.OnCensusACT(true) // census lost one ACT
	c.OnRunEnd(2, 0)
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "conservation") {
		t.Fatalf("want conservation violation, got %v", err)
	}
}

func TestWindowCloseMismatch(t *testing.T) {
	c := New(Config{})
	c.OnCensusACT(true)
	c.OnCensusACT(true)
	c.OnWindowClose(1) // table dropped an ACT
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "conservation") {
		t.Fatalf("want conservation violation, got %v", err)
	}
}

func TestRefreshSpacing(t *testing.T) {
	c := New(Config{})
	c.OnRefresh(0, 7800, 7800)
	c.OnRefresh(0, 15600, 7800)
	if err := c.Err(); err != nil {
		t.Fatalf("exact tREFI spacing flagged: %v", err)
	}
	c.OnRefresh(0, 15000, 7800) // went backwards
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "refresh") {
		t.Fatalf("want refresh violation, got %v", err)
	}
}

func TestBankACTRespectsTRC(t *testing.T) {
	c := New(Config{})
	c.OnBankACT(0, 0, 45)
	c.OnBankACT(0, 45, 45)
	c.OnBankACT(1, 50, 45) // other bank: independent clock
	if err := c.Err(); err != nil {
		t.Fatalf("tRC-spaced ACTs flagged: %v", err)
	}
	c.OnBankACT(0, 80, 45) // 45+45 = 90 > 80
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "tRC") {
		t.Fatalf("want tRC violation, got %v", err)
	}
}

func TestEpochCompletenessCleanOnRealRubixD(t *testing.T) {
	g := tinyRubixDGeom(t)
	d, err := core.NewRubixD(g, core.RubixDConfig{GangSize: 4, RemapRate: 1, Seed: 5, NoStagger: true})
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{SampleEvery: 1})
	c.AttachFullMapper(g, d)
	d.SetRemapObserver(c)
	for i := 0; i < 8; i++ { // 3 row-addr bits: 8 episodes complete the epoch
		d.NoteActivation(0)
	}
	if d.Epochs() != 1 {
		t.Fatalf("expected exactly one epoch, got %d", d.Epochs())
	}
	if err := c.Err(); err != nil {
		t.Fatalf("real Rubix-D epoch flagged: %v", err)
	}
	if c.Checks() == 0 {
		t.Fatal("epoch check did not run")
	}
}

// brokenTranslator is not XOR-linear: T(x) = x|1 sends 0 and 1 to the same
// image, losing a gang.
type brokenTranslator struct{}

func (brokenTranslator) Name() string                                      { return "Broken" }
func (brokenTranslator) Map(line uint64) uint64                            { return line }
func (brokenTranslator) Groups() int                                       { return 1 }
func (brokenTranslator) RowAddrBits() uint                                 { return 3 }
func (brokenTranslator) TranslateGroup(group int, rowAddr uint64) uint64   { return rowAddr | 1 }
func (brokenTranslator) UntranslateGroup(group int, rowAddr uint64) uint64 { return rowAddr }

func TestEpochCompletenessViolation(t *testing.T) {
	c := New(Config{})
	c.AttachMapper(smallGeom(t), brokenTranslator{})
	c.OnRemapStep(0, 0, true)
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("want epoch violation, got %v", err)
	}
}

// fakeMit is a minimal Mitigator whose ReleaseTime can be acausal.
type fakeMit struct {
	acts    uint64
	acausal bool
}

func (m *fakeMit) Name() string                   { return "Fake" }
func (m *fakeMit) TranslateRow(row uint64) uint64 { return row }
func (m *fakeMit) ReleaseTime(row uint64, arrival float64) float64 {
	if m.acausal {
		return arrival - 1
	}
	return arrival
}
func (m *fakeMit) OnACT(row uint64, actStart float64) { m.acts++ }
func (m *fakeMit) ResetWindow()                       {}
func (m *fakeMit) Mitigations() uint64                { return 0 }

func TestWrapMitigatorCountsAndForwards(t *testing.T) {
	c := New(Config{})
	inner := &fakeMit{}
	w := WrapMitigator(c, inner)
	w.OnACT(1, 10)
	w.OnACT(2, 60)
	if inner.acts != 2 {
		t.Fatalf("inner saw %d ACTs, want 2", inner.acts)
	}
	if w.ReleaseTime(1, 5) != 5 {
		t.Fatal("ReleaseTime not forwarded")
	}
	c.OnControllerACT()
	c.OnControllerACT()
	c.OnCensusACT(true)
	c.OnCensusACT(true)
	c.OnWindowClose(2) // Finalize always closes the last window
	c.OnRunEnd(2, 0)
	if err := c.Err(); err != nil {
		t.Fatalf("wrapped counting broke conservation: %v", err)
	}
}

func TestWrapMitigatorCausality(t *testing.T) {
	c := New(Config{})
	w := WrapMitigator(c, &fakeMit{acausal: true})
	w.ReleaseTime(1, 100)
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "causality") {
		t.Fatalf("want causality violation, got %v", err)
	}
}

func TestMaxViolationsCap(t *testing.T) {
	c := New(Config{SampleEvery: 1, MaxViolations: 2})
	c.AttachFullMapper(smallGeom(t), badInverter{})
	for i := uint64(0); i < 10; i++ {
		c.OnMap(i, i)
	}
	if got := len(c.Violations()); got != 2 {
		t.Fatalf("violation list length %d, want capped at 2", got)
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "further violations") {
		t.Fatalf("truncation note missing: %v", err)
	}
}

func TestCheckerAcceptsRealMappers(t *testing.T) {
	g := smallGeom(t)
	cl, err := mapping.NewCoffeeLake(g)
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{SampleEvery: 1})
	c.AttachFullMapper(g, cl)
	for line := uint64(0); line < g.TotalLines(); line++ {
		c.OnMap(line, cl.Map(line))
	}
	if err := c.Err(); err != nil {
		t.Fatalf("CoffeeLake flagged: %v", err)
	}
	if c.Checks() == 0 {
		t.Fatal("no checks ran")
	}
}

// inertMit is a stateless causal mitigator, safe to share across goroutines.
type inertMit struct{ acausal bool }

func (inertMit) Name() string                   { return "Inert" }
func (inertMit) TranslateRow(row uint64) uint64 { return row }
func (m inertMit) ReleaseTime(row uint64, arrival float64) float64 {
	if m.acausal {
		return arrival - 1
	}
	return arrival
}
func (inertMit) OnACT(row uint64, actStart float64) {}
func (inertMit) ResetWindow()                       {}
func (inertMit) Mitigations() uint64                { return 0 }

// TestCheckerConcurrentHooks hammers every hook and reporting method from
// many goroutines at once. Run under -race this fails on any unguarded
// Checker field; without -race it still fails if lost counter updates break
// conservation at OnRunEnd.
func TestCheckerConcurrentHooks(t *testing.T) {
	const workers = 8
	const perWorker = 200

	g := smallGeom(t)
	cl, err := mapping.NewCoffeeLake(g)
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{SampleEvery: 1, WindowLines: 64})
	c.AttachFullMapper(g, cl)
	w := WrapMitigator(c, inertMit{})

	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func(id int) {
			defer wg.Done()
			base := uint64(id * perWorker)
			trc := 45.0
			for k := 0; k < perWorker; k++ {
				line := (base + uint64(k)) % g.TotalLines()
				c.OnMap(line, cl.Map(line))
				c.OnControllerACT()
				w.OnACT(line, float64(k)*trc)
				c.OnCensusACT(true)
				// Per-worker bank with tRC-spaced activations: no timing
				// violations regardless of interleaving across workers.
				c.OnBankACT(id, float64(k)*trc, trc)
				if k%64 == 63 {
					c.OnRefresh(id, float64(k+1)*trc, 64*trc)
				}
				// Readers racing the writers exercise the reporting paths.
				if k%32 == 0 {
					_ = c.Checks()
					_ = c.Violations()
					_ = c.Err()
				}
			}
		}(i)
	}
	wg.Wait()

	const total = workers * perWorker
	c.OnWindowClose(total) // reconcile census tables with offered ACTs
	c.OnRunEnd(total, 0)
	if err := c.Err(); err != nil {
		t.Fatalf("concurrent hooks broke an invariant (lost update?): %v", err)
	}
	if c.Checks() == 0 {
		t.Fatal("no checks ran")
	}
}

// TestCheckerConcurrentViolations hammers the violation-recording path (the
// mutex protects the violations slice and the truncation counter too).
func TestCheckerConcurrentViolations(t *testing.T) {
	const workers = 8
	const perWorker = 100

	c := New(Config{MaxViolations: 5})
	w := WrapMitigator(c, inertMit{acausal: true})

	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				w.ReleaseTime(uint64(k), 100)
				_ = c.Violations()
			}
		}()
	}
	wg.Wait()

	if got := len(c.Violations()); got != 5 {
		t.Fatalf("violation list length %d, want capped at 5", got)
	}
	if got := c.Checks(); got != workers*perWorker {
		t.Fatalf("Checks() = %d, want %d (lost updates)", got, workers*perWorker)
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "further violations") {
		t.Fatalf("truncation note missing: %v", err)
	}
}
