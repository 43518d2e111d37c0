// Hydra (Qureshi et al., ISCA 2022) — the hybrid tracker the paper cites
// (§2.4) for low-cost tracking at ultra-low thresholds. Hydra keeps a small
// SRAM structure of GROUP counters; only when a group becomes warm does it
// fall back to per-row counters (held in DRAM in the real design, with an
// SRAM cache). This gives per-row accuracy at a fraction of per-row SRAM.
//
// The simulator models Hydra's two levels functionally:
//
//   - Group Count Table (GCT): one counter per group of rows. Counts
//     activations to the whole group until the group threshold is reached.
//   - Row Count Table (RCT): per-row counters, materialized lazily for rows
//     of warm groups, initialized to the group threshold (a row can have at
//     most that many activations when its group graduates).
//
// The DRAM-access cost of RCT lookups is not charged to the memory model
// (the real design hides most of it behind an SRAM cache); Hydra here is a
// functional alternative to MisraGries/PerRow for tracking studies.

package tracker

import (
	"rubix/internal/metrics"
	"rubix/internal/rowtable"
)

// Hydra is the hybrid group/row activation tracker.
type Hydra struct {
	rowThreshold   uint32
	groupThreshold uint32
	groupShift     uint
	groups         rowtable.Table[uint32] // keyed by group number
	rows           rowtable.Table[uint32]
	reports        uint64

	mLookups *metrics.Counter
	mReports *metrics.Counter
}

// HydraConfig configures NewHydra.
type HydraConfig struct {
	// Threshold is the per-row report threshold (typically T_RH/2).
	Threshold int
	// GroupSize is the number of consecutive rows per group counter
	// (power of two; 0 = 128, Hydra's default granularity).
	GroupSize int
	// GroupThresholdFrac is the fraction of Threshold at which a group
	// graduates to per-row tracking (0 = 0.8, Hydra's default).
	GroupThresholdFrac float64
}

// NewHydra builds a Hydra tracker.
func NewHydra(cfg HydraConfig) *Hydra {
	if cfg.Threshold < 1 {
		cfg.Threshold = 1
	}
	if cfg.GroupSize == 0 {
		cfg.GroupSize = 128
	}
	if cfg.GroupSize < 1 || cfg.GroupSize&(cfg.GroupSize-1) != 0 {
		cfg.GroupSize = 128
	}
	frac := cfg.GroupThresholdFrac
	if frac <= 0 || frac > 1 {
		frac = 0.8
	}
	shift := uint(0)
	for v := cfg.GroupSize; v > 1; v >>= 1 {
		shift++
	}
	gt := uint32(float64(cfg.Threshold) * frac)
	if gt < 1 {
		gt = 1
	}
	return &Hydra{
		rowThreshold:   uint32(cfg.Threshold),
		groupThreshold: gt,
		groupShift:     shift,
		groups:         rowtable.New[uint32](trackerInitSlots),
		rows:           rowtable.New[uint32](trackerInitSlots),
	}
}

// Name implements Tracker.
func (h *Hydra) Name() string { return "Hydra" }

// SetMetrics implements metrics.Settable.
func (h *Hydra) SetMetrics(r *metrics.Recorder) {
	h.mLookups = r.Counter("tracker_lookups")
	h.mReports = r.Counter("tracker_reports")
}

// RecordACT implements Tracker.
//
// While a group is cold, its counter aggregates the whole group's
// activations — a conservative over-count per row, which preserves the
// security guarantee (no row can exceed its true count unnoticed). When the
// group counter reaches the group threshold, the activated row graduates to
// an exact per-row counter seeded with the group count (an upper bound on
// the row's own activations so far).
func (h *Hydra) RecordACT(row uint64) bool {
	h.mLookups.Inc()
	group := row >> h.groupShift
	gc := h.groups.Get(group)
	if *gc < h.groupThreshold {
		*gc++
		if *gc >= h.rowThreshold {
			// The group counter alone proves SOME row may have reached the
			// threshold; report this row and restart its group. (With
			// groupThreshold < rowThreshold this only triggers when
			// groupThreshold is configured at 1.0.)
			h.groups.Delete(group)
			h.reports++
			h.mReports.Inc()
			return true
		}
		return false
	}
	// Warm group: exact per-row tracking. A row seen for the first time
	// after graduation is seeded with the group count (an upper bound on
	// its own prior activations — pessimistic, which is what makes Hydra
	// over-mitigate at ultra-low thresholds); after a report the row
	// restarts at zero, since the mitigation neutralized its history.
	rc := h.rows.Find(row)
	if rc == nil {
		rc = h.rows.Get(row)
		*rc = *gc
	}
	*rc++
	if *rc >= h.rowThreshold {
		*rc = 0
		h.reports++
		h.mReports.Inc()
		return true
	}
	return false
}

// Reset implements Tracker.
func (h *Hydra) Reset() {
	h.groups.Reset()
	h.rows.Reset()
}

// Reports returns the cumulative number of threshold reports.
func (h *Hydra) Reports() uint64 { return h.reports }

// WarmGroups reports how many groups graduated to per-row tracking (sizing
// studies).
func (h *Hydra) WarmGroups() int {
	n := 0
	h.groups.Each(func(_ uint64, gc *uint32) {
		if *gc >= h.groupThreshold {
			n++
		}
	})
	return n
}

// TrackedRows reports the number of materialized per-row counters.
func (h *Hydra) TrackedRows() int { return h.rows.Len() }
