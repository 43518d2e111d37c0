// Package check implements the runtime invariant checker ("paranoid mode")
// and the differential-replay relations (replay.go) for the simulator.
//
// The paper's evaluation rests on structural invariants that static analysis
// cannot see: mappings must be bijections over [0, TotalLines()), every
// activation the controller issues must be accounted by the DRAM census and
// observed by the mitigation, and Rubix-D's gradual remap must leave every
// gang mapped under exactly one key after each epoch. A Checker verifies
// these online, by sampling, while a real workload runs.
//
// The attachment pattern mirrors package metrics: a nil *Checker is a valid
// no-op receiver for every hook, so components embed `if chk != nil` branches
// (or call nil-safe methods) and the checker-off hot path stays allocation-
// free — the cmd/benchdiff gate holds with the hooks compiled in.
//
// cold: paranoid mode is opt-in debug machinery; with the checker attached,
// allocation and overhead are accepted by construction, so hotalloc's
// reachability stops at this package boundary.
package check

import (
	"errors"
	"fmt"
	"sync"

	"rubix/internal/geom"
	"rubix/internal/mapping"
)

// Config tunes the checker. The zero value selects the defaults.
type Config struct {
	// SampleEvery spot-checks one mapping per N controller accesses
	// (round-trip, domain membership, collision window). Default 64.
	SampleEvery int
	// WindowLines bounds the collision-detection window: the number of
	// recent sampled (line, phys) pairs checked for two lines claiming the
	// same physical index. Default 4096.
	WindowLines int
	// MaxViolations caps the collected violation list; further violations
	// are counted but not recorded. Default 32.
	MaxViolations int
}

func (c Config) withDefaults() Config {
	if c.SampleEvery <= 0 {
		c.SampleEvery = 64
	}
	if c.WindowLines <= 0 {
		c.WindowLines = 4096
	}
	if c.MaxViolations <= 0 {
		c.MaxViolations = 32
	}
	return c
}

// Violation is one detected invariant breach.
type Violation struct {
	Kind   string // "bijection", "collision", "conservation", "epoch", "refresh", "timing", "causality"
	Detail string
}

func (v Violation) String() string { return v.Kind + ": " + v.Detail }

// GroupTranslator is the view of a dynamic (Rubix-D-style) mapper the
// checker needs for epoch-completeness checks. *core.RubixD implements it;
// the interface is structural so this package need not import core.
type GroupTranslator interface {
	Groups() int
	RowAddrBits() uint
	TranslateGroup(group int, rowAddr uint64) uint64
	UntranslateGroup(group int, rowAddr uint64) uint64
}

// bankClock tracks per-bank monotonicity state.
type bankClock struct {
	lastRefresh float64 // guarded by mu
	lastAct     float64 // guarded by mu
	refreshes   uint64  // guarded by mu
	acts        uint64  // guarded by mu
}

// Checker collects sampled online assertions for one simulation run. Every
// hook and reporting method is safe for concurrent use: all mutable state
// is guarded by one mutex (the checker is off the hot path by contract — a
// nil *Checker short-circuits before any locking, and the zero-cost
// contract holds: every exported hook is safe, and free, on a nil
// receiver).
type Checker struct {
	mu sync.Mutex

	cfg    Config             // guarded by mu
	geo    geom.Geometry      // guarded by mu
	mapper mapping.Mapper     // guarded by mu
	inv    mapping.Inverter   // guarded by mu; nil under the reduced AttachMapper surface
	full   mapping.FullMapper // guarded by mu; batch surface, nil under AttachMapper
	gt     GroupTranslator    // guarded by mu

	tick  uint64 // accesses seen; drives sampling; guarded by mu
	probe uint64 // deterministic mixer state for synthetic probe addresses; guarded by mu

	// Collision window: phys -> line over the most recent sampled mappings,
	// with a ring buffer evicting the oldest entry. Flushed whenever a
	// dynamic mapper remaps (the mapping legitimately changed).
	winRing []uint64          // guarded by mu
	winNext int               // guarded by mu
	winMap  map[uint64]uint64 // guarded by mu

	// Conservation counters (cumulative over the run).
	ctrlActs     uint64 // demand activations observed by the controller; guarded by mu
	mitActs      uint64 // OnACT calls observed by the wrapped mitigation; guarded by mu
	censusDemand uint64 // demand activations recorded by the DRAM census; guarded by mu
	censusExtra  uint64 // mitigation/remap activations recorded by the census; guarded by mu
	censusTable  uint64 // activations summed from census tables at window closes; guarded by mu

	banks []bankClock // guarded by mu

	checks     uint64      // guarded by mu
	violations []Violation // guarded by mu
	truncated  int         // guarded by mu
}

// New builds a Checker.
func New(cfg Config) *Checker {
	cfg = cfg.withDefaults()
	return &Checker{
		cfg:     cfg,
		probe:   0x6a09_e667_f3bc_c908, // sqrt(2) fraction; any odd-ish constant works
		winRing: make([]uint64, cfg.WindowLines),
		winMap:  make(map[uint64]uint64, cfg.WindowLines),
	}
}

// violate records one violation. Callers must hold c.mu.
func (c *Checker) violate(kind, format string, args ...any) {
	if len(c.violations) >= c.cfg.MaxViolations {
		c.truncated++
		return
	}
	c.violations = append(c.violations, Violation{Kind: kind, Detail: fmt.Sprintf(format, args...)})
}

// AttachMapper gives the checker the run's geometry and a forward-only
// mapper: range checks, the collision window, and (when the mapper provides
// the GroupTranslator view) epoch-completeness checks run; round-trip and
// batch≡scalar spot checks need the full translation surface — use
// AttachFullMapper for those. This reduced surface exists for deliberately
// broken or partial mappers (differential test doubles, external
// experiments); every mapper in this repository implements
// mapping.FullMapper and should attach through AttachFullMapper.
func (c *Checker) AttachMapper(g geom.Geometry, m mapping.Mapper) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.geo = g
	c.mapper = m
	c.inv = nil
	c.full = nil
	c.gt, _ = m.(GroupTranslator)
}

// AttachFullMapper gives the checker the run's geometry and the complete
// translation surface — scalar and batched, both directions — enabling
// every mapping check: range, collision window, Unmap round trips,
// synthetic probes, and the batch≡scalar agreement probe. This is the
// production attach path (sim.Run uses it); no capability type assertions
// are needed because sim.MapperFor returns mapping.FullMapper. Only the
// GroupTranslator view, a checker-local extension for Rubix-D epoch
// checks, is still probed.
func (c *Checker) AttachFullMapper(g geom.Geometry, m mapping.FullMapper) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.geo = g
	c.mapper = m
	c.inv = m
	c.full = m
	c.gt, _ = m.(GroupTranslator)
}

// --- mapping checks ----------------------------------------------------------

// OnMap is called by the memory controller for every translated access with
// the program line and the physical line the mapper produced (before any
// mitigation row indirection). One in SampleEvery calls runs the spot checks.
func (c *Checker) OnMap(line, phys uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick++
	if c.tick%uint64(c.cfg.SampleEvery) != 0 {
		return
	}
	c.checkMapping(line, phys)
}

func (c *Checker) checkMapping(line, phys uint64) {
	c.checks++
	total := c.geo.TotalLines()
	if total > 0 && phys >= total {
		c.violate("bijection", "%s: Map(%#x) = %#x escapes [0, %#x)", c.name(), line, phys, total)
		return
	}
	if c.inv != nil {
		if back := c.inv.Unmap(phys); back != line {
			c.violate("bijection", "%s: Unmap(Map(%#x)) = %#x", c.name(), line, back)
		}
		// A synthetic probe covers address space the workload never touches.
		c.probe = c.probe*0x9e37_79b9_7f4a_7c15 + 0xbf58_476d_1ce4_e5b9
		if total > 0 {
			x := c.probe & (total - 1)
			if back := c.inv.Unmap(c.mapper.Map(x)); back != x {
				c.violate("bijection", "%s: Unmap(Map(%#x)) = %#x (synthetic probe)", c.name(), x, back)
			}
			if c.full != nil {
				c.checkBatchAgreement(line, x)
			}
		}
	}
	c.windowInsert(line, phys)
}

// checkBatchAgreement spot-checks the batched translation surface against
// the scalar one: MapBatch/UnmapBatch must agree with Map/Unmap element for
// element under the mapping state at call time (DESIGN.md §12). The probe
// runs synchronously inside the access path, so no remap episode can slip
// between the batch and scalar evaluations. Callers must hold c.mu.
func (c *Checker) checkBatchAgreement(line, x uint64) {
	in := [2]uint64{line, x}
	var fwd, back [2]uint64
	c.full.MapBatch(in[:], fwd[:])
	for i, l := range in {
		if want := c.mapper.Map(l); fwd[i] != want {
			c.violate("batch", "%s: MapBatch(%#x) = %#x, scalar Map = %#x", c.name(), l, fwd[i], want)
		}
	}
	c.full.UnmapBatch(fwd[:], back[:])
	for i, l := range in {
		if want := c.inv.Unmap(fwd[i]); back[i] != want {
			c.violate("batch", "%s: UnmapBatch(%#x) = %#x, scalar Unmap = %#x", c.name(), fwd[i], back[i], want)
		}
		if back[i] != l {
			c.violate("batch", "%s: batch round trip lost line %#x (got %#x)", c.name(), l, back[i])
		}
	}
}

func (c *Checker) name() string {
	if c.mapper == nil {
		return "<no mapper>"
	}
	return c.mapper.Name()
}

// windowInsert records a sampled (line, phys) pair and flags two distinct
// lines claiming the same physical index within the window.
func (c *Checker) windowInsert(line, phys uint64) {
	if prev, ok := c.winMap[phys]; ok {
		if prev != line {
			c.violate("collision", "%s: lines %#x and %#x both map to physical line %#x", c.name(), prev, line, phys)
		}
		return
	}
	if len(c.winMap) >= len(c.winRing) {
		delete(c.winMap, c.winRing[c.winNext])
	}
	c.winRing[c.winNext] = phys
	c.winNext = (c.winNext + 1) % len(c.winRing)
	c.winMap[phys] = line
}

// flushWindow empties the collision window; called when a dynamic mapper
// remaps, since two lines can legitimately occupy one physical index at
// different times.
func (c *Checker) flushWindow() {
	clear(c.winMap)
}

// --- conservation checks -----------------------------------------------------

// OnControllerACT is called by the memory controller for every demand access
// that activated a row.
func (c *Checker) OnControllerACT() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.ctrlActs++
	c.mu.Unlock()
}

// OnCensusACT is called by the DRAM module for every activation it records
// in the per-row census (demand or mitigation/remap traffic).
func (c *Checker) OnCensusACT(demand bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if demand {
		c.censusDemand++
	} else {
		c.censusExtra++
	}
	c.mu.Unlock()
}

// OnWindowClose is called by the DRAM module when it finalizes a refresh
// window, with the total activations held in the census table. Cumulative
// table contents must equal the cumulative offered activations — catching
// census bugs that lose or duplicate rows.
func (c *Checker) OnWindowClose(tableActs uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.checks++
	c.censusTable += tableActs
	if offered := c.censusDemand + c.censusExtra; c.censusTable != offered {
		c.violate("conservation", "census tables held %d ACTs at window close, %d were offered (%d demand + %d extra)",
			c.censusTable, offered, c.censusDemand, c.censusExtra)
	}
}

// OnRunEnd is called once after dram.Module.Finalize with the run's final
// activation totals; it closes the conservation ledger.
func (c *Checker) OnRunEnd(demandActs, extraActs uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.checks++
	if c.ctrlActs != demandActs {
		c.violate("conservation", "controller issued %d demand ACTs, DRAM accounted %d", c.ctrlActs, demandActs)
	}
	if c.mitActs != c.ctrlActs {
		c.violate("conservation", "mitigation observed %d ACTs, controller issued %d", c.mitActs, c.ctrlActs)
	}
	if c.censusDemand != demandActs {
		c.violate("conservation", "census recorded %d demand ACTs, stats report %d", c.censusDemand, demandActs)
	}
	if c.censusExtra != extraActs {
		c.violate("conservation", "census recorded %d extra ACTs, stats report %d", c.censusExtra, extraActs)
	}
	if offered := c.censusDemand + c.censusExtra; c.censusTable != offered {
		c.violate("conservation", "census tables held %d ACTs over the run, %d were offered", c.censusTable, offered)
	}
}

// --- timing checks -----------------------------------------------------------

func (c *Checker) bank(i int) *bankClock {
	for len(c.banks) <= i {
		c.banks = append(c.banks, bankClock{})
	}
	return &c.banks[i]
}

// OnBankACT is called by the DRAM module for every demand activation with
// the bank index, the activation start time, and the configured tRC. Demand
// activations of one bank must be spaced by at least tRC and never move
// backwards in time.
func (c *Checker) OnBankACT(bank int, actStart, trc float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.bank(bank)
	c.checks++
	if b.acts > 0 && actStart < b.lastAct+trc {
		c.violate("timing", "bank %d ACT at %g ns violates tRC=%g after ACT at %g ns", bank, actStart, trc, b.lastAct)
	}
	b.lastAct = actStart
	b.acts++
}

// OnRefresh is called by the DRAM module for every periodic refresh it
// retires, with the bank index, the refresh's scheduled time, and tREFI.
// Per-bank refresh times must advance by exactly tREFI.
func (c *Checker) OnRefresh(bank int, at, trefi float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.bank(bank)
	c.checks++
	if b.refreshes > 0 {
		if at <= b.lastRefresh {
			c.violate("refresh", "bank %d refresh at %g ns not after previous at %g ns", bank, at, b.lastRefresh)
		} else if trefi > 0 && at != b.lastRefresh+trefi {
			c.violate("refresh", "bank %d refresh at %g ns, want %g (tREFI=%g)", bank, at, b.lastRefresh+trefi, trefi)
		}
	}
	b.lastRefresh = at
	b.refreshes++
}

// --- Rubix-D epoch checks ----------------------------------------------------

// OnRemapStep implements core.RemapObserver: it is called by a dynamic
// mapper after every remap episode with the circuit index, the advanced
// pointer, and whether the episode completed an epoch. The collision window
// is flushed (the mapping changed); completed epochs run the completeness
// check, and a sampled subset of mid-sweep steps re-verifies the group
// round-trip around the pointer.
func (c *Checker) OnRemapStep(group int, ptr uint64, rolled bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushWindow()
	if c.gt == nil {
		return
	}
	if rolled {
		c.checkEpoch(group)
		return
	}
	if ptr&0x3f == 0 {
		c.checkGroupRoundTrip(group, ptr)
	}
}

// checkEpoch verifies Rubix-D epoch completeness. Immediately after a roll
// the pointer is zero, so translate must be the pure XOR with the folded
// key: T(x) == T(0) ^ x for every row address of the group. That single
// linearity property implies the strong claim — every gang resolved under
// exactly one key, none lost or duplicated — because x -> K ^ x is a
// bijection. Domains up to 2^16 row addresses are checked exhaustively;
// larger ones use a deterministic odd-multiplier sample.
func (c *Checker) checkEpoch(group int) {
	c.checks++
	bits := c.gt.RowAddrBits()
	mask := (uint64(1) << bits) - 1
	base := c.gt.TranslateGroup(group, 0)
	verify := func(x uint64) bool {
		got := c.gt.TranslateGroup(group, x)
		if got != base^x {
			c.violate("epoch", "group %d after epoch roll: translate(%#x) = %#x, want %#x (not a single-key XOR)",
				group, x, got, base^x)
			return false
		}
		if back := c.gt.UntranslateGroup(group, got); back != x {
			c.violate("epoch", "group %d after epoch roll: untranslate(translate(%#x)) = %#x", group, x, back)
			return false
		}
		return true
	}
	if bits <= 16 {
		for x := uint64(0); x <= mask; x++ {
			if !verify(x) {
				return
			}
		}
		return
	}
	for i := uint64(0); i < 1<<12; i++ {
		if !verify(i * 0x9e37_79b9_7f4a_7c15 & mask) {
			return
		}
	}
}

// checkGroupRoundTrip spot-checks the mid-sweep translation: row addresses
// around the pointer (the region where the two-key translation is most
// delicate) must round-trip through the group's circuit.
func (c *Checker) checkGroupRoundTrip(group int, ptr uint64) {
	c.checks++
	mask := (uint64(1) << c.gt.RowAddrBits()) - 1
	for _, x := range [...]uint64{ptr & mask, (ptr - 1) & mask, (ptr + 1) & mask, 0, mask} {
		y := c.gt.TranslateGroup(group, x)
		if back := c.gt.UntranslateGroup(group, y); back != x {
			c.violate("epoch", "group %d at ptr %#x: untranslate(translate(%#x)) = %#x", group, ptr, x, back)
			return
		}
	}
}

// --- mitigation wrapping -----------------------------------------------------

// Mitigator mirrors mitigation.Mitigator structurally (builtin-typed methods
// only) so the checker can wrap a scheme without importing that package.
type Mitigator interface {
	Name() string
	TranslateRow(row uint64) uint64
	ReleaseTime(row uint64, arrival float64) float64
	OnACT(row uint64, actStart float64)
	ResetWindow()
	Mitigations() uint64
}

// CheckedMitigator forwards every call to the wrapped scheme while counting
// the activations it observes (for conservation) and asserting release-time
// causality.
type CheckedMitigator struct {
	inner Mitigator
	chk   *Checker
}

// WrapMitigator wraps m so the checker observes its activation feed. The
// checker must be non-nil; callers keep the unwrapped scheme when checking
// is off, preserving the zero-cost contract.
func WrapMitigator(c *Checker, m Mitigator) *CheckedMitigator {
	return &CheckedMitigator{inner: m, chk: c}
}

// Name forwards to the wrapped scheme.
func (w *CheckedMitigator) Name() string { return w.inner.Name() }

// TranslateRow forwards to the wrapped scheme.
func (w *CheckedMitigator) TranslateRow(row uint64) uint64 { return w.inner.TranslateRow(row) }

// ReleaseTime forwards to the wrapped scheme and asserts the grant is not
// before the request's arrival (an acausal grant would let a throttled
// activation start in the past).
func (w *CheckedMitigator) ReleaseTime(row uint64, arrival float64) float64 {
	t := w.inner.ReleaseTime(row, arrival)
	w.chk.noteReleaseTime(w.inner.Name(), row, arrival, t)
	return t
}

// noteReleaseTime records one causality check (and its violation, if the
// grant precedes the arrival).
func (c *Checker) noteReleaseTime(name string, row uint64, arrival, t float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.checks++
	if t < arrival {
		c.violate("causality", "%s: ReleaseTime(%#x, %g) = %g is before arrival", name, row, arrival, t)
	}
}

// OnACT counts the activation and forwards it.
func (w *CheckedMitigator) OnACT(row uint64, actStart float64) {
	w.chk.noteMitACT()
	w.inner.OnACT(row, actStart)
}

// noteMitACT counts one mitigation-observed activation.
func (c *Checker) noteMitACT() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.mitActs++
	c.mu.Unlock()
}

// ResetWindow forwards to the wrapped scheme.
func (w *CheckedMitigator) ResetWindow() { w.inner.ResetWindow() }

// Mitigations forwards to the wrapped scheme.
func (w *CheckedMitigator) Mitigations() uint64 { return w.inner.Mitigations() }

// --- reporting ---------------------------------------------------------------

// Checks reports how many invariant checks ran.
func (c *Checker) Checks() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.checks
}

// Violations returns a copy of the recorded violations.
func (c *Checker) Violations() []Violation {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Violation(nil), c.violations...)
}

// Err returns nil when every check passed, or an error joining the recorded
// violations.
func (c *Checker) Err() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.violations) == 0 {
		return nil
	}
	errs := make([]error, 0, len(c.violations)+1)
	for _, v := range c.violations {
		errs = append(errs, errors.New(v.String()))
	}
	if c.truncated > 0 {
		errs = append(errs, fmt.Errorf("... and %d further violations over the cap", c.truncated))
	}
	return errors.Join(errs...)
}
