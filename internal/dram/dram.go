// Package dram models the DRAM memory system: per-bank row-buffer state and
// command timing, per-channel data-bus occupancy, the open-adaptive page
// policy, and — central to the paper — per-row activation accounting in
// 64 ms refresh windows (hot-row census, activating-line census, and the
// security watchdog).
//
// The model is event-driven at request granularity rather than cycle
// accurate: bank preparation (precharge + activate) overlaps across banks,
// and only data-bus bursts serialize within a channel. This reproduces the
// bandwidth and latency behaviour the evaluation depends on (row-buffer
// hit rate, activation counts, channel blocking during migrations) at a
// small fraction of a cycle-accurate simulator's cost.
package dram

import (
	"fmt"

	"rubix/internal/check"
	"rubix/internal/geom"
	"rubix/internal/metrics"
	"rubix/internal/rowtable"
	"rubix/internal/stats"
)

// Timing holds DRAM timing parameters in nanoseconds.
type Timing struct {
	TRCD          float64 // row-to-column delay (ACT to CAS)
	TCL           float64 // CAS latency
	TRP           float64 // precharge time
	TRC           float64 // minimum ACT-to-ACT interval for one bank
	TBurst        float64 // data-bus occupancy per 64 B line transfer
	RefreshWindow float64 // refresh interval (activation-count window)
	OpenMax       int     // open-adaptive page policy: close after N accesses
	// RowLease models FR-FCFS row-hit-first scheduling: a conflicting
	// request must wait RowLease ns after the open row's last use before it
	// may close the row, so an in-flight hit streak is served first rather
	// than ping-ponging the row buffer between requestors.
	RowLease float64
	// TREFI and TRFC model periodic refresh: every TREFI ns each bank is
	// unavailable for TRFC ns (DDR4 8Gb: 7800 / 350). Zero disables
	// refresh modelling — the default, since the ~4.5% bandwidth tax is
	// identical across every configuration the paper compares and would
	// cancel out of all normalized results. Enable it for absolute
	// latency/bandwidth studies.
	TREFI float64
	TRFC  float64
	// TWR is the write-recovery time added before precharging a row that
	// received a write burst. Only consulted when the controller issues
	// writes (WriteFraction > 0).
	TWR float64
}

// DDR4_2400 returns the paper's DDR4 2400 MT/s timing (Table 1):
// tRCD = tCL = tRP = 14.2 ns, tRC = 45 ns, 64 ms refresh window, and the
// open-adaptive policy's 16-access maximum. tBurst is 64 B over a 64-bit
// channel at 2400 MT/s ≈ 3.33 ns.
func DDR4_2400() Timing {
	return Timing{
		TRCD:          14.2,
		TCL:           14.2,
		TRP:           14.2,
		TRC:           45,
		TBurst:        10.0 / 3.0,
		RefreshWindow: 64e6,
		OpenMax:       16,
		RowLease:      24,
		TWR:           15,
	}
}

// WithRefresh returns a copy of t with DDR4 periodic-refresh modelling
// enabled (tREFI = 7.8 µs, tRFC = 350 ns).
func (t Timing) WithRefresh() Timing {
	t.TREFI = 7800
	t.TRFC = 350
	return t
}

type bankState struct {
	openRow      int64 // global row index currently open; -1 if closed
	openAccesses int
	lastActStart float64
	readyAt      float64
	leaseUntil   float64 // FR-FCFS row-hit priority window
	nextRefresh  float64
	wrote        bool // open row received a write (write recovery applies)
}

// AccessResult reports the outcome of one demand access.
type AccessResult struct {
	Completion float64 // ns at which data is available
	ActStart   float64 // ns of the activation, if one occurred
	GlobalRow  uint64  // global row the access touched
	RowHit     bool
	Activated  bool
}

// WindowStats summarizes one finished refresh window.
type WindowStats struct {
	Start       float64
	UniqueRows  int // rows with >= 1 activation
	Hot64       int // rows with >= 64 activations
	Hot512      int // rows with >= 512 activations
	OverTRH     int // rows strictly exceeding the Rowhammer threshold
	MaxActs     uint32
	LineBuckets [3]int // hot rows (>=64 ACTs) with 1-32, 33-64, 65-128 activating lines
	LineSum     int    // total activating lines over hot rows (for the average)
}

// Stats aggregates accounting over the whole run.
type Stats struct {
	Accesses   uint64 // demand accesses
	RowHits    uint64
	WriteCAS   uint64 // demand accesses that were writes
	DemandActs uint64 // activations from demand misses
	ExtraActs  uint64 // activations from migrations / swaps
	ExtraCAS   uint64 // column accesses from migrations / swaps
	Windows    []WindowStats

	// Latency decomposition (ns summed over all accesses): time spent
	// waiting for the bank to be free, for an open row's FR-FCFS lease,
	// in precharge+activate, and for the data bus.
	WaitBankNs  float64
	WaitLeaseNs float64
	PrepNs      float64
	WaitBusNs   float64

	// Latency is the per-access latency distribution, populated when
	// Config.LatencyHist is set.
	Latency *stats.Histogram

	currentStart float64
}

// HitRate returns the row-buffer hit rate over the run.
func (s *Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(s.Accesses)
}

// TotalHot64 sums hot-row (>= 64 ACT) events over all windows, the
// quantity plotted in Figures 7 and 12.
func (s *Stats) TotalHot64() int {
	n := 0
	for _, w := range s.Windows {
		n += w.Hot64
	}
	return n
}

// TotalHot512 sums rows with >= 512 activations over all windows.
func (s *Stats) TotalHot512() int {
	n := 0
	for _, w := range s.Windows {
		n += w.Hot512
	}
	return n
}

// TotalOverTRH sums security-watchdog violations (rows strictly exceeding
// the Rowhammer threshold within a window) over all windows. Secure
// mitigations must keep this at zero.
func (s *Stats) TotalOverTRH() int {
	n := 0
	for _, w := range s.Windows {
		n += w.OverTRH
	}
	return n
}

// MeanUniqueRows returns the average unique rows activated per window
// (Table 2's "Unique Rows Activated").
func (s *Stats) MeanUniqueRows() float64 {
	if len(s.Windows) == 0 {
		return 0
	}
	n := 0
	for _, w := range s.Windows {
		n += w.UniqueRows
	}
	return float64(n) / float64(len(s.Windows))
}

// Module is the DRAM memory system model.
type Module struct {
	Geom   geom.Geometry
	Timing Timing

	banks   []bankState
	busFree []float64 // per channel

	// Float accounting is accumulated per channel and folded into Stats in
	// ascending channel order (drainChannels). Floating-point addition is
	// not associative, so this fold order is part of the committed results:
	// a single global accumulator changes multi-channel totals in the last
	// bits. TestMultiChannelGolden (internal/sim) and the perfbench golden
	// digests pin it.
	waitBank  []float64         // ns, per channel
	waitLease []float64         // ns, per channel
	prep      []float64         // ns, per channel
	waitBus   []float64         // ns, per channel
	latHist   []stats.Histogram // per channel; only when Config.LatencyHist

	// Accounting.
	trh        int // Rowhammer threshold for the watchdog (0 disables)
	lineCensus bool
	acts       rowtable.Table[uint32]  // activations per row this window; unused under Config.LineCensus
	lines      rowtable.Table[lineRow] // the same with line bitmaps; used only under Config.LineCensus
	windowEnd  float64
	stats      Stats

	// Metrics handles (nil and no-op when metrics are disabled).
	rec        *metrics.Recorder
	mActDemand *metrics.Counter
	mActExtra  *metrics.Counter
	mHits      *metrics.Counter
	mMisses    *metrics.Counter
	mConflicts *metrics.Counter
	mWriteCAS  *metrics.Counter

	// chk is the paranoid-mode invariant checker; nil when checking is off.
	chk *check.Checker
}

// Config configures a Module.
type Config struct {
	Geometry    geom.Geometry
	Timing      Timing
	TRH         int  // Rowhammer threshold for the security watchdog
	LineCensus  bool // track activating lines per row (Table 3); costs memory
	LatencyHist bool // collect the per-access latency distribution
	// Metrics, when non-nil, receives per-access counters and trace events.
	Metrics *metrics.Recorder
	// Check, when non-nil, receives census-conservation and per-bank
	// timing (tRC, tREFI) events.
	Check *check.Checker
}

// New builds a DRAM module.
func New(cfg Config) *Module {
	m := &Module{
		Geom:       cfg.Geometry,
		Timing:     cfg.Timing,
		banks:      make([]bankState, cfg.Geometry.BanksTotal()),
		busFree:    make([]float64, cfg.Geometry.Channels),
		trh:        cfg.TRH,
		lineCensus: cfg.LineCensus,
		windowEnd:  cfg.Timing.RefreshWindow,
	}
	if cfg.LineCensus {
		m.lines = rowtable.New[lineRow](censusInitSlots)
	} else {
		m.acts = rowtable.New[uint32](censusInitSlots)
	}
	m.waitBank = make([]float64, cfg.Geometry.Channels)
	m.waitLease = make([]float64, cfg.Geometry.Channels)
	m.prep = make([]float64, cfg.Geometry.Channels)
	m.waitBus = make([]float64, cfg.Geometry.Channels)
	if cfg.LatencyHist {
		m.latHist = make([]stats.Histogram, cfg.Geometry.Channels)
	}
	// A 250M-instruction run spans a handful of refresh windows; reserving
	// them up front keeps Windows appends off the steady-state ACT path.
	m.stats.Windows = make([]WindowStats, 0, 8)
	for i := range m.banks {
		m.banks[i].openRow = -1
		m.banks[i].lastActStart = -cfg.Timing.TRC // no phantom ACT at t=0
	}
	if cfg.LatencyHist {
		m.stats.Latency = &stats.Histogram{}
	}
	m.rec = cfg.Metrics
	m.mActDemand = cfg.Metrics.Counter("dram_acts_demand")
	m.mActExtra = cfg.Metrics.Counter("dram_acts_extra")
	m.mHits = cfg.Metrics.Counter("dram_row_hits")
	m.mMisses = cfg.Metrics.Counter("dram_row_misses")
	m.mConflicts = cfg.Metrics.Counter("dram_row_conflicts")
	m.mWriteCAS = cfg.Metrics.Counter("dram_write_cas")
	m.chk = cfg.Check
	return m
}

// Access performs a demand read access to the physical line index phys,
// starting no earlier than `earliest` ns. It updates bank and bus state and
// all accounting, and returns the access outcome.
func (m *Module) Access(phys uint64, earliest float64) AccessResult {
	return m.AccessRW(phys, earliest, false)
}

// AccessRW is Access with an explicit read/write direction. Writes mark the
// open row so the write-recovery time (tWR) is charged before its precharge.
func (m *Module) AccessRW(phys uint64, earliest float64, write bool) AccessResult {
	row := m.Geom.GlobalRow(phys)
	slot := m.Geom.Slot(phys)
	bi := m.Geom.BankID(row)
	bank := &m.banks[bi]
	ch := m.Geom.ChannelOf(row)

	// Periodic refresh: catch up on any refreshes due before this access.
	if m.Timing.TREFI > 0 {
		if bank.nextRefresh == 0 {
			bank.nextRefresh = m.Timing.TREFI
		}
		for earliest >= bank.nextRefresh {
			end := bank.nextRefresh + m.Timing.TRFC
			if bank.wrote {
				// Refresh requires the bank precharged, and a written row
				// must satisfy write recovery before it may precharge — so
				// the first catch-up refresh eats tWR on top of tRFC.
				end += m.Timing.TWR
				bank.wrote = false
			}
			if bank.readyAt < end {
				bank.readyAt = end
			}
			bank.openRow = -1 // refresh closes the row
			if m.chk != nil {
				m.chk.OnRefresh(bi, bank.nextRefresh, m.Timing.TREFI)
			}
			bank.nextRefresh += m.Timing.TREFI
		}
	}

	res := AccessResult{GlobalRow: row}
	var casReady float64
	if bank.openRow == int64(row) {
		res.RowHit = true
		casReady = max(earliest, bank.readyAt)
		m.waitBank[ch] += casReady - earliest
		m.mHits.Inc()
	} else {
		start := max(earliest, bank.readyAt)
		m.waitBank[ch] += start - earliest
		m.mMisses.Inc()
		conflict := bank.openRow >= 0
		if conflict {
			m.mConflicts.Inc()
			m.rec.Event(metrics.EvRowConflict, start, row)
			// Row-hit-first: wait out the open row's lease, then precharge
			// (after write recovery if the row was written).
			leased := max(start, bank.leaseUntil)
			m.waitLease[ch] += leased - start
			start = leased + m.Timing.TRP
			if bank.wrote {
				start += m.Timing.TWR
				bank.wrote = false
			}
		}
		actStart := max(start, bank.lastActStart+m.Timing.TRC)
		casReady = actStart + m.Timing.TRCD
		// Prep time is the activate latency, plus the precharge only when
		// one was actually issued (row conflict); a bank that was already
		// closed goes straight to ACT.
		prep := casReady - start
		if conflict {
			prep += m.Timing.TRP
		}
		m.prep[ch] += prep
		bank.lastActStart = actStart
		bank.openRow = int64(row)
		bank.openAccesses = 0
		res.Activated = true
		res.ActStart = actStart
		if m.chk != nil {
			m.chk.OnBankACT(bi, actStart, m.Timing.TRC)
		}
		m.recordACT(row, slot, actStart, true)
	}

	busStart := max(casReady, m.busFree[ch])
	m.waitBus[ch] += busStart - casReady
	res.Completion = busStart + m.Timing.TCL
	m.busFree[ch] = busStart + m.Timing.TBurst
	// The bank is occupied by the column command itself (tCCD ≈ tBurst);
	// the data burst occupies only the shared bus.
	bank.readyAt = casReady + m.Timing.TBurst
	bank.leaseUntil = casReady + m.Timing.RowLease

	if write {
		bank.wrote = true
		m.stats.WriteCAS++
		m.mWriteCAS.Inc()
	}
	bank.openAccesses++
	if bank.openAccesses >= m.Timing.OpenMax {
		// Open-adaptive policy: close the row after OpenMax accesses.
		bank.openRow = -1
		trp := m.Timing.TRP
		if bank.wrote {
			trp += m.Timing.TWR
			bank.wrote = false
		}
		bank.readyAt = casReady + trp
		bank.leaseUntil = 0
	}

	m.stats.Accesses++
	if res.RowHit {
		m.stats.RowHits++
	}
	if m.latHist != nil {
		m.latHist[ch].Add(res.Completion - earliest)
	}
	return res
}

// WouldHit reports whether an access to phys would hit the currently open
// row of its bank (used by rate-control mitigations, which only throttle
// activations, to decide whether a request needs an activation grant).
func (m *Module) WouldHit(phys uint64) bool {
	row := m.Geom.GlobalRow(phys)
	return m.banks[m.Geom.BankID(row)].openRow == int64(row)
}

// ForceActivate registers an activation of globalRow at time `at` caused by
// a mitigation or remap operation (migration, swap). The caller accounts
// for the operation's bus/bank occupancy separately via BlockChannel.
func (m *Module) ForceActivate(globalRow uint64, at float64) {
	// A mitigation operation closes whatever row was open in the bank.
	bank := &m.banks[m.Geom.BankID(globalRow)]
	bank.openRow = -1
	bank.lastActStart = max(bank.lastActStart, at)
	m.stats.ExtraActs++
	m.mActExtra.Inc()
	m.recordACT(globalRow, -1, at, false)
}

// AddExtraCAS accounts column accesses performed by mitigation operations.
func (m *Module) AddExtraCAS(n int) { m.stats.ExtraCAS += uint64(n) }

// BlockChannel occupies the channel owning globalRow from `from` for `dur`
// nanoseconds (row migrations tie up the memory bus, §2.6).
func (m *Module) BlockChannel(globalRow uint64, from, dur float64) {
	ch := m.Geom.ChannelOf(globalRow)
	m.busFree[ch] = max(m.busFree[ch], from) + dur
}

// drainChannels folds the per-channel float accumulators into the Stats
// fields in ascending channel order and zeroes the accumulators, so the
// fold is idempotent and Stats/Finalize may both call it (and mid-run
// Stats() reads still see cumulative totals).
//
// cold: runs at stats-read time, never on the access path.
func (m *Module) drainChannels() {
	for ch := range m.waitBank {
		m.stats.WaitBankNs += m.waitBank[ch]
		m.stats.WaitLeaseNs += m.waitLease[ch]
		m.stats.PrepNs += m.prep[ch]
		m.stats.WaitBusNs += m.waitBus[ch]
		m.waitBank[ch] = 0
		m.waitLease[ch] = 0
		m.prep[ch] = 0
		m.waitBus[ch] = 0
	}
	if m.stats.Latency != nil {
		for ch := range m.latHist {
			m.stats.Latency.Merge(&m.latHist[ch])
			m.latHist[ch] = stats.Histogram{}
		}
	}
}

// Finalize closes the last (partial) window and returns the run's stats.
// The module must not be used after Finalize. The returned Stats is a
// copy, not a pointer into the Module: a Result that keeps its stats must
// not keep the bank array and census table reachable with them
// (TestFinalizeReleasesModule).
func (m *Module) Finalize() *Stats {
	m.finalizeWindow()
	m.drainChannels()
	st := m.stats
	return &st
}

// Stats returns the running statistics without finalizing the last window.
func (m *Module) Stats() *Stats {
	m.drainChannels()
	return &m.stats
}

// String implements fmt.Stringer.
func (m *Module) String() string {
	return fmt.Sprintf("DRAM[%s]", m.Geom)
}
