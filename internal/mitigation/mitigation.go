// Package mitigation implements the Rowhammer mitigations the paper
// evaluates (§2.5): the secure, aggressor-focused schemes AQUA (quarantine
// migration), SRS (scalable row-swap), and BlockHammer (activation-rate
// control), plus victim-refresh TRR (for the Table 5 comparison and the
// Half-Double demonstration) and a no-op baseline.
//
// A Mitigator plugs into the memory controller at three points:
//
//  1. TranslateRow — row-migration schemes (AQUA, SRS) redirect accesses to
//     a row's current physical location;
//  2. ReleaseTime — rate-control schemes (BlockHammer) delay the earliest
//     activation time of a throttled row;
//  3. OnACT — every demand activation feeds the scheme's tracker and may
//     trigger a mitigative action, whose cost is charged to the DRAM module
//     (channel blocking, extra activations, extra column accesses).
package mitigation

import (
	"fmt"

	"rubix/internal/dram"
	"rubix/internal/metrics"
	"rubix/internal/rng"
	"rubix/internal/rowtable"
	"rubix/internal/tracker"
)

// Mitigator is a pluggable Rowhammer mitigation.
type Mitigator interface {
	// Name identifies the scheme in reports.
	Name() string
	// TranslateRow maps a post-mapping global row to its current physical
	// global row (identity except for migration schemes).
	TranslateRow(row uint64) uint64
	// ReleaseTime returns the earliest time an activation of row may start,
	// given the request's arrival. Rate-control schemes move it forward.
	ReleaseTime(row uint64, arrival float64) float64
	// OnACT is invoked for every demand activation of row at actStart.
	OnACT(row uint64, actStart float64)
	// ResetWindow is invoked at every refresh-window boundary.
	ResetWindow()
	// Mitigations reports how many mitigative actions were performed
	// (migrations, swaps, throttled activations, victim refreshes).
	Mitigations() uint64
}

// --- None --------------------------------------------------------------------

// None is the unprotected baseline.
type None struct{}

// NewNone returns the unprotected baseline mitigator.
func NewNone() None { return None{} }

// Name implements Mitigator.
func (None) Name() string { return "None" }

// TranslateRow implements Mitigator.
func (None) TranslateRow(row uint64) uint64 { return row }

// ReleaseTime implements Mitigator.
func (None) ReleaseTime(_ uint64, arrival float64) float64 { return arrival }

// OnACT implements Mitigator.
func (None) OnACT(uint64, float64) {}

// ResetWindow implements Mitigator.
func (None) ResetWindow() {}

// Mitigations implements Mitigator.
func (None) Mitigations() uint64 { return 0 }

// --- shared migration bookkeeping ---------------------------------------------

// indirection tracks row relocations with forward (original→current) and
// reverse (current→original) tables, identity when absent. The tables are
// never Reset: a relocation outlives the refresh window.
type indirection struct {
	fwd rowtable.Table[uint64]
	rev rowtable.Table[uint64]
}

func newIndirection() indirection {
	return indirection{fwd: rowtable.New[uint64](indirectionInitSlots), rev: rowtable.New[uint64](indirectionInitSlots)}
}

// indirectionInitSlots is the initial size of the relocation and grant
// tables, which hold only mitigated rows.
const indirectionInitSlots = 64

func (in *indirection) current(orig uint64) uint64 {
	if c := in.fwd.Find(orig); c != nil {
		return *c
	}
	return orig
}

func (in *indirection) original(cur uint64) uint64 {
	if o := in.rev.Find(cur); o != nil {
		return *o
	}
	return cur
}

// relocate moves the content currently at cur to dst and records it.
func (in *indirection) relocate(cur, dst uint64) {
	orig := in.original(cur)
	in.rev.Delete(cur)
	in.set(orig, dst)
}

// set records that orig's content currently lives at cur, dropping the
// forward entry entirely when a row is back home.
func (in *indirection) set(orig, cur uint64) {
	if orig == cur {
		in.fwd.Delete(orig)
	} else {
		*in.fwd.Get(orig) = cur
		*in.rev.Get(cur) = orig
	}
}

// swap exchanges the contents of physical rows a and b.
func (in *indirection) swap(a, b uint64) {
	oa, ob := in.original(a), in.original(b)
	in.rev.Delete(a)
	in.rev.Delete(b)
	in.set(oa, b)
	in.set(ob, a)
}

// --- AQUA ---------------------------------------------------------------------

// AQUA (Saxena et al., MICRO 2022) migrates an aggressor row to a quarantine
// region when it reaches T_RH/2 activations (the halved threshold accounts
// for tracker reset). The migration ties up the channel for several
// microseconds.
type AQUA struct {
	dram       *dram.Module
	trk        tracker.Tracker
	ind        indirection
	quarBase   uint64 // first quarantine row
	quarRows   uint64
	quarNext   uint64
	slotEpoch  []uint32 // window in which each slot was last assigned
	epoch      uint32
	migrateNs  float64
	migrations uint64

	rec      *metrics.Recorder
	mActions *metrics.Counter
}

// AQUAConfig configures NewAQUA.
type AQUAConfig struct {
	TRH             int // Rowhammer threshold
	TrackerCapacity int // Misra-Gries entries (0 = auto-size)
	// Tracker overrides the default Misra-Gries activation tracker (e.g.
	// a Hydra instance for tracking-fidelity studies). It must report at
	// T_RH/2.
	Tracker tracker.Tracker
	// QuarantineRows sizes the quarantine region (0 = 65536, ~3% of the
	// 16 GB baseline). AQUA's guarantee requires that a quarantine slot is
	// not reused within one refresh window, so the region must be sized
	// for the worst-case migrations per window.
	QuarantineRows uint64
	MigrateNs      float64 // channel-blocking time per migration (0 = 2000)
}

// NewAQUA builds the AQUA mitigator over module d.
func NewAQUA(d *dram.Module, cfg AQUAConfig) *AQUA {
	if cfg.QuarantineRows == 0 {
		cfg.QuarantineRows = 65536
	}
	if cfg.MigrateNs == 0 {
		cfg.MigrateNs = 2000
	}
	threshold := cfg.TRH / 2
	if threshold < 1 {
		threshold = 1
	}
	capacity := cfg.TrackerCapacity
	if capacity == 0 {
		capacity = autoTrackerCapacity(d, threshold)
	}
	trk := cfg.Tracker
	if trk == nil {
		trk = tracker.NewMisraGries(threshold, capacity)
	}
	total := d.Geom.TotalRows()
	return &AQUA{
		dram:      d,
		trk:       trk,
		ind:       newIndirection(),
		quarBase:  total - cfg.QuarantineRows,
		quarRows:  cfg.QuarantineRows,
		slotEpoch: make([]uint32, cfg.QuarantineRows),
		epoch:     1,
		migrateNs: cfg.MigrateNs,
	}
}

// autoTrackerCapacity sizes a Misra-Gries table so that any row reaching the
// threshold within a refresh window is guaranteed to be tracked: the window
// activation budget (window / tRC per bank × banks) divided by the threshold.
func autoTrackerCapacity(d *dram.Module, threshold int) int {
	budget := d.Timing.RefreshWindow / d.Timing.TRC * float64(d.Geom.BanksTotal())
	c := int(budget / float64(threshold))
	if c < 64 {
		c = 64
	}
	if c > 1<<20 {
		c = 1 << 20
	}
	return c
}

// Name implements Mitigator.
func (a *AQUA) Name() string { return "AQUA" }

// SetMetrics implements metrics.Settable: mitigation_actions counts
// migrations; the tracker's counters are wired through.
func (a *AQUA) SetMetrics(r *metrics.Recorder) {
	a.rec = r
	a.mActions = r.Counter("mitigation_actions")
	metrics.Attach(r, a.trk)
}

// TranslateRow implements Mitigator.
func (a *AQUA) TranslateRow(row uint64) uint64 { return a.ind.current(row) }

// ReleaseTime implements Mitigator.
func (a *AQUA) ReleaseTime(_ uint64, arrival float64) float64 { return arrival }

// OnACT implements Mitigator.
func (a *AQUA) OnACT(row uint64, actStart float64) {
	if !a.trk.RecordACT(row) {
		return
	}
	// Migrate the aggressor to the next quarantine slot not yet assigned
	// in this refresh window: reusing a slot within a window would give the
	// row two 64-activation tenancies, breaking the T_RH bound. If every
	// slot has been used (an attack far beyond the region's design point)
	// fall back to round-robin reuse.
	var dst uint64
	found := false
	for try := uint64(0); try < a.quarRows; try++ {
		slot := a.quarNext % a.quarRows
		a.quarNext++
		if a.slotEpoch[slot] != a.epoch {
			a.slotEpoch[slot] = a.epoch
			dst = a.quarBase + slot
			found = true
			break
		}
	}
	if !found {
		dst = a.quarBase + a.quarNext%a.quarRows
		a.quarNext++
	}
	if dst == row {
		return
	}
	// If the slot is occupied from an earlier window, restore its occupant
	// to the occupant's original home first (residency expiry).
	if occupant := a.ind.original(dst); occupant != dst {
		a.ind.relocate(dst, occupant)
		a.forceTracked(dst, actStart)
		a.forceTracked(occupant, actStart)
		a.dram.AddExtraCAS(2 * a.dram.Geom.LinesPerRow())
		a.dram.BlockChannel(dst, actStart, a.migrateNs)
	}
	a.ind.relocate(row, dst)
	// Copy cost: read the source row, write the destination row; the
	// channel is blocked for the duration and both rows are activated.
	a.dram.BlockChannel(row, actStart, a.migrateNs)
	a.forceTracked(row, actStart)
	a.forceTracked(dst, actStart)
	a.dram.AddExtraCAS(2 * a.dram.Geom.LinesPerRow())
	a.migrations++
	a.mActions.Inc()
	a.rec.Event(metrics.EvMitigation, actStart, row)
}

// forceTracked performs a mitigation-generated activation and feeds it to
// the tracker: migration reads/writes are real ACT commands and must count
// toward the row's budget. A report triggered here is deliberately left for
// the next demand activation to act on (the row's count has just reset).
func (a *AQUA) forceTracked(row uint64, at float64) {
	a.dram.ForceActivate(row, at)
	a.trk.RecordACT(row)
}

// ResetWindow implements Mitigator.
func (a *AQUA) ResetWindow() {
	a.trk.Reset()
	a.epoch++
}

// Mitigations implements Mitigator.
func (a *AQUA) Mitigations() uint64 { return a.migrations }

// --- SRS ----------------------------------------------------------------------

// SRS — Scalable Row-Swap (Woo et al., HPCA 2023) — swaps an aggressor row
// with a random row in memory once it reaches T_RH/3 activations (the lower
// threshold defends the birthday-paradox attack on randomized swaps).
type SRS struct {
	dram   *dram.Module
	trk    *tracker.MisraGries
	ind    indirection
	rng    *rng.Xoshiro256
	swapNs float64
	swaps  uint64

	rec      *metrics.Recorder
	mActions *metrics.Counter
}

// SRSConfig configures NewSRS.
type SRSConfig struct {
	TRH             int
	TrackerCapacity int     // 0 = auto-size
	SwapNs          float64 // channel-blocking time per swap (0 = 4000)
	Seed            uint64
}

// NewSRS builds the SRS mitigator over module d.
func NewSRS(d *dram.Module, cfg SRSConfig) *SRS {
	if cfg.SwapNs == 0 {
		cfg.SwapNs = 4000
	}
	threshold := cfg.TRH / 3
	if threshold < 1 {
		threshold = 1
	}
	capacity := cfg.TrackerCapacity
	if capacity == 0 {
		capacity = autoTrackerCapacity(d, threshold)
	}
	return &SRS{
		dram:   d,
		trk:    tracker.NewMisraGries(threshold, capacity),
		ind:    newIndirection(),
		rng:    rng.NewXoshiro256(cfg.Seed ^ 0x5253), // "RS"
		swapNs: cfg.SwapNs,
	}
}

// Name implements Mitigator.
func (s *SRS) Name() string { return "SRS" }

// SetMetrics implements metrics.Settable: mitigation_actions counts swaps.
func (s *SRS) SetMetrics(r *metrics.Recorder) {
	s.rec = r
	s.mActions = r.Counter("mitigation_actions")
	metrics.Attach(r, s.trk)
}

// TranslateRow implements Mitigator.
func (s *SRS) TranslateRow(row uint64) uint64 { return s.ind.current(row) }

// ReleaseTime implements Mitigator.
func (s *SRS) ReleaseTime(_ uint64, arrival float64) float64 { return arrival }

// OnACT implements Mitigator.
func (s *SRS) OnACT(row uint64, actStart float64) {
	if !s.trk.RecordACT(row) {
		return
	}
	dst := s.rng.Uint64n(s.dram.Geom.TotalRows())
	if dst == row {
		return
	}
	s.ind.swap(row, dst)
	// Swap cost: the paper's sequence activates X, Y, then X again and
	// streams both rows through the controller, blocking the channel for
	// roughly twice a one-way migration. The swap's own activations count
	// toward the rows' budgets — SRS's T_RH/3 threshold exists precisely so
	// that up to three tenancies per window stay under T_RH.
	s.dram.BlockChannel(row, actStart, s.swapNs)
	for _, r := range [3]uint64{row, dst, row} {
		s.dram.ForceActivate(r, actStart)
		s.trk.RecordACT(r)
	}
	s.dram.AddExtraCAS(4 * s.dram.Geom.LinesPerRow())
	s.swaps++
	s.mActions.Inc()
	s.rec.Event(metrics.EvMitigation, actStart, row)
}

// ResetWindow implements Mitigator.
func (s *SRS) ResetWindow() { s.trk.Reset() }

// Mitigations implements Mitigator.
func (s *SRS) Mitigations() uint64 { return s.swaps }

// --- BlockHammer ----------------------------------------------------------------

// BlockHammer (Yağlıkçı et al., HPCA 2021) rate-limits activations so no row
// can receive more than T_RH activations within a refresh window. Rows whose
// count reaches the blacklist threshold (T_RH/2) have subsequent activations
// delayed to a minimum inter-activation interval of window/T_RH.
type BlockHammer struct {
	trk         tracker.Counting
	blacklist   int
	minInterval float64
	nextAllowed rowtable.Table[float64] // grants persist across windows: never Reset
	throttled   uint64
	delayNs     float64

	rec      *metrics.Recorder
	mActions *metrics.Counter
	gDelay   *metrics.Gauge
}

// BlockHammerConfig configures NewBlockHammer.
type BlockHammerConfig struct {
	TRH int
	// Tracker overrides the idealized per-row counters with another
	// Counting tracker — e.g. tracker.NewCBF for the real BlockHammer's
	// counting-Bloom-filter, whose over-estimates throttle some innocent
	// rows (tracking-fidelity studies). Its report threshold is unused;
	// only Count feeds the blacklist.
	Tracker tracker.Counting
}

// NewBlockHammer builds the BlockHammer mitigator over module d.
func NewBlockHammer(d *dram.Module, cfg BlockHammerConfig) *BlockHammer {
	trh := cfg.TRH
	if trh < 2 {
		trh = 2
	}
	// The counter only feeds the blacklist decision; give it an
	// unreachable report threshold so counts never auto-reset mid-window.
	// The activation budget after blacklisting is TRH - TRH/2, spread over
	// the window, so no row can exceed TRH activations per window.
	trk := cfg.Tracker
	if trk == nil {
		trk = tracker.NewPerRow(1 << 30)
	}
	return &BlockHammer{
		trk:         trk,
		blacklist:   trh / 2,
		minInterval: d.Timing.RefreshWindow / float64(trh-trh/2),
		nextAllowed: rowtable.New[float64](indirectionInitSlots),
	}
}

// Name implements Mitigator.
func (b *BlockHammer) Name() string { return "BlockHammer" }

// SetMetrics implements metrics.Settable: mitigation_actions counts
// throttled activations, blockhammer_delay_ns the total injected delay.
func (b *BlockHammer) SetMetrics(r *metrics.Recorder) {
	b.rec = r
	b.mActions = r.Counter("mitigation_actions")
	b.gDelay = r.Gauge("blockhammer_delay_ns")
	metrics.Attach(r, b.trk)
}

// TranslateRow implements Mitigator.
func (b *BlockHammer) TranslateRow(row uint64) uint64 { return row }

// ReleaseTime implements Mitigator: delays activations of blacklisted rows.
func (b *BlockHammer) ReleaseTime(row uint64, arrival float64) float64 {
	if int(b.trk.Count(row)) < b.blacklist {
		return arrival
	}
	na := b.nextAllowed.Get(row) // 0 on a row's first grant; arrival is never negative
	t := arrival
	if *na > t {
		t = *na
	}
	*na = t + b.minInterval
	if t > arrival {
		b.throttled++
		b.delayNs += t - arrival
		b.mActions.Inc()
		b.gDelay.Set(b.delayNs)
		b.rec.Event(metrics.EvMitigation, arrival, row)
	}
	return t
}

// OnACT implements Mitigator.
func (b *BlockHammer) OnACT(row uint64, _ float64) {
	b.trk.RecordACT(row)
}

// ResetWindow implements Mitigator. Activation counts reset with the
// refresh window, but grant reservations carry over: wiping them would let
// queued-up requests land in the new window on top of its fresh
// pre-blacklist budget, exceeding T_RH. With reservations persisting, a
// window sees at most TRH/2 un-throttled plus TRH/2 granted activations.
func (b *BlockHammer) ResetWindow() {
	b.trk.Reset()
}

// Mitigations implements Mitigator: the number of throttled activations.
func (b *BlockHammer) Mitigations() uint64 { return b.throttled }

// DelayNs reports the total injected delay.
func (b *BlockHammer) DelayNs() float64 { return b.delayNs }

// --- TRR (victim refresh) --------------------------------------------------------

// TRR models in-DRAM Target Row Refresh: when an aggressor reaches T_RH/2
// activations, its neighbour rows (distance 1) are refreshed. A refresh is
// an activation of the victim row, which is exactly why Half-Double works:
// heavy hammering of row A makes TRR activate A±1 thousands of times,
// hammering A±2 (§1, Figure 1b). TRR is included for the Table 5 comparison
// and the attack example; it is NOT a secure mitigation.
type TRR struct {
	dram      *dram.Module
	trk       *tracker.PerRow
	refreshes uint64

	rec      *metrics.Recorder
	mActions *metrics.Counter
}

// NewTRR builds the TRR mitigator over module d with threshold trh.
func NewTRR(d *dram.Module, trh int) *TRR {
	t := trh / 2
	if t < 1 {
		t = 1
	}
	return &TRR{dram: d, trk: tracker.NewPerRow(t)}
}

// Name implements Mitigator.
func (t *TRR) Name() string { return "TRR" }

// SetMetrics implements metrics.Settable: mitigation_actions counts victim
// refreshes.
func (t *TRR) SetMetrics(r *metrics.Recorder) {
	t.rec = r
	t.mActions = r.Counter("mitigation_actions")
	metrics.Attach(r, t.trk)
}

// TranslateRow implements Mitigator.
func (t *TRR) TranslateRow(row uint64) uint64 { return row }

// ReleaseTime implements Mitigator.
func (t *TRR) ReleaseTime(_ uint64, arrival float64) float64 { return arrival }

// OnACT implements Mitigator: refresh the neighbours when the tracker fires.
func (t *TRR) OnACT(row uint64, actStart float64) {
	if !t.trk.RecordACT(row) {
		return
	}
	// Physically adjacent rows within a bank differ by BanksTotal in the
	// global row index (banks occupy the low bits of the global row).
	stride := uint64(t.dram.Geom.BanksTotal())
	total := t.dram.Geom.TotalRows()
	if row >= stride {
		t.dram.ForceActivate(row-stride, actStart)
	}
	if row+stride < total {
		t.dram.ForceActivate(row+stride, actStart)
	}
	t.refreshes++
	t.mActions.Inc()
	t.rec.Event(metrics.EvMitigation, actStart, row)
}

// ResetWindow implements Mitigator.
func (t *TRR) ResetWindow() { t.trk.Reset() }

// Mitigations implements Mitigator.
func (t *TRR) Mitigations() uint64 { return t.refreshes }

// --- helpers -----------------------------------------------------------------

// ByName constructs a mitigator by scheme name; used by the CLIs.
// Valid names: none, aqua, srs, blockhammer, trr.
func ByName(name string, d *dram.Module, trh int, seed uint64) (Mitigator, error) {
	switch name {
	case "none":
		return NewNone(), nil
	case "aqua":
		return NewAQUA(d, AQUAConfig{TRH: trh}), nil
	case "srs":
		return NewSRS(d, SRSConfig{TRH: trh, Seed: seed}), nil
	case "blockhammer", "bh":
		return NewBlockHammer(d, BlockHammerConfig{TRH: trh}), nil
	case "trr":
		return NewTRR(d, trh), nil
	case "para":
		return NewPARA(d, PARAConfig{TRH: trh, Seed: seed}), nil
	case "dsac":
		return NewDSAC(d, DSACConfig{TRH: trh, Seed: seed}), nil
	}
	return nil, fmt.Errorf("mitigation: unknown scheme %q", name)
}
