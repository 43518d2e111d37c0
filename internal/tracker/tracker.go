// Package tracker implements DRAM activation trackers: the components that
// watch per-row activation counts and flag rows that reach a mitigation
// threshold within the refresh window (§3.1). MisraGries is the bounded
// heavy-hitters tracker of AQUA and SRS; PerRow is BlockHammer's idealized
// one-counter-per-row tracker; Hydra and CBF model cheaper hardware for
// tracking-fidelity studies. Per-row state lives in rowtable tables.
//
// Trackers count *activations* (ACT commands), not accesses: row-buffer hits
// do not disturb neighbouring rows. Counts reset every refresh window
// (64 ms), which is why mitigations use a tracker threshold of T_RH/2.
package tracker

import (
	"rubix/internal/metrics"
	"rubix/internal/rowtable"
)

// Tracker watches row activations and reports rows reaching a threshold.
type Tracker interface {
	// Name identifies the tracker in reports.
	Name() string
	// RecordACT registers one activation of the given global row and
	// reports whether the row has reached the mitigation threshold. When it
	// returns true the tracker also resets its count for that row (the
	// mitigation is assumed to neutralize the row's history).
	RecordACT(row uint64) bool
	// Reset clears all counts; called at every refresh-window boundary.
	Reset()
}

// Counting is a Tracker that can also report its current in-window count
// (or a safe over-estimate) for a row — what rate-control schemes like
// BlockHammer consult for their blacklist decision. PerRow is exact; CBF
// over-estimates (never under), which preserves the security property at
// the cost of false-positive throttling.
type Counting interface {
	Tracker
	Count(row uint64) uint32
}

// --- Misra-Gries -------------------------------------------------------------

// MisraGries is a heavy-hitters activation tracker with a bounded number of
// entries. The classic decrement-all step is implemented with a global
// floor so each operation is O(1) amortized.
type MisraGries struct {
	threshold uint32
	capacity  int
	floor     uint32
	counts    rowtable.Table[uint32] // stored as true count; entry live iff count > floor
	reports   uint64

	mLookups   *metrics.Counter
	mReports   *metrics.Counter
	mEvictions *metrics.Counter
}

// NewMisraGries builds a tracker that reports a row when it accumulates
// threshold activations, using at most capacity concurrent entries.
// threshold must be >= 1 and capacity >= 1.
func NewMisraGries(threshold int, capacity int) *MisraGries {
	if threshold < 1 {
		threshold = 1
	}
	if capacity < 1 {
		capacity = 1
	}
	// The capacity is a logical entry bound, not a storage commitment: a
	// low-threshold tracker may be entitled to millions of entries yet hold
	// a few thousand for its whole life. Size the table for at most 4096
	// entries at its 3/4 load and let it grow to workloads that need more.
	return &MisraGries{
		threshold: uint32(threshold),
		capacity:  capacity,
		counts:    rowtable.New[uint32](min(capacity, 1<<12) * 4 / 3),
	}
}

// Name implements Tracker.
func (t *MisraGries) Name() string { return "Misra-Gries" }

// SetMetrics implements metrics.Settable: tracker_lookups counts RecordACT
// calls, tracker_reports threshold reports, tracker_evictions the entries
// dropped by the decrement-all step.
func (t *MisraGries) SetMetrics(r *metrics.Recorder) {
	t.mLookups = r.Counter("tracker_lookups")
	t.mReports = r.Counter("tracker_reports")
	t.mEvictions = r.Counter("tracker_evictions")
}

// RecordACT implements Tracker.
func (t *MisraGries) RecordACT(row uint64) bool {
	t.mLookups.Inc()
	var c *uint32
	if t.counts.Len() < t.capacity {
		// A fresh claim reads 0, and live counts always exceed the floor.
		if c = t.counts.Get(row); *c == 0 {
			*c = t.floor
		}
	} else if c = t.counts.Find(row); c == nil {
		t.decrementAll()
		return false
	}
	*c++
	if *c-t.floor >= t.threshold {
		// Report and reset: the mitigation acts on this row now.
		t.counts.Delete(row)
		t.reports++
		t.mReports.Inc()
		return true
	}
	return false
}

// decrementAll is the Misra-Gries step for a full table, realized as a
// floor increment that evicts every entry falling to the floor.
//
// cold: only a full table reaches it, and auto-sizing sets the capacity to
// the window's ACT budget over the threshold, so a window must first touch
// that many distinct rows. The closure does not escape Each, so it is
// stack-allocated.
func (t *MisraGries) decrementAll() {
	t.floor++
	t.counts.Each(func(row uint64, c *uint32) {
		if *c <= t.floor {
			t.counts.Delete(row)
			t.mEvictions.Inc()
		}
	})
}

// Reset implements Tracker.
func (t *MisraGries) Reset() {
	t.floor = 0
	t.counts.Reset()
}

// Entries reports the number of live entries (for tests and sizing studies).
func (t *MisraGries) Entries() int { return t.counts.Len() }

// Reports returns the cumulative number of threshold reports.
func (t *MisraGries) Reports() uint64 { return t.reports }

// --- Per-row counters ---------------------------------------------------------

// PerRow is an exact tracker with one counter per row in memory, as assumed
// for BlockHammer in the paper ("an idealized SRAM tracker with one counter
// per row"). The simulation stores only rows touched this window; untouched
// rows read as count 0, exactly what the modeled dense array would hold.
type PerRow struct {
	threshold uint32
	counts    rowtable.Table[uint32]
	reports   uint64

	mLookups *metrics.Counter
	mReports *metrics.Counter
}

// trackerInitSlots is the initial table size of PerRow and Hydra.
const trackerInitSlots = 1 << 10

// NewPerRow builds an exact tracker reporting at threshold activations.
func NewPerRow(threshold int) *PerRow {
	if threshold < 1 {
		threshold = 1
	}
	return &PerRow{threshold: uint32(threshold), counts: rowtable.New[uint32](trackerInitSlots)}
}

// Name implements Tracker.
func (t *PerRow) Name() string { return "PerRowCounter" }

// SetMetrics implements metrics.Settable.
func (t *PerRow) SetMetrics(r *metrics.Recorder) {
	t.mLookups = r.Counter("tracker_lookups")
	t.mReports = r.Counter("tracker_reports")
}

// RecordACT implements Tracker.
func (t *PerRow) RecordACT(row uint64) bool {
	t.mLookups.Inc()
	c := t.counts.Get(row)
	*c++
	if *c >= t.threshold {
		*c = 0
		t.reports++
		t.mReports.Inc()
		return true
	}
	return false
}

// Count returns the current in-window count for a row (0 if untouched this
// window). Used by BlockHammer's throttle decision.
func (t *PerRow) Count(row uint64) uint32 {
	if c := t.counts.Find(row); c != nil {
		return *c
	}
	return 0
}

// Reset implements Tracker.
func (t *PerRow) Reset() { t.counts.Reset() }

// Reports returns the cumulative number of threshold reports.
func (t *PerRow) Reports() uint64 { return t.reports }
