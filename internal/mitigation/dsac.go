// DSAC — a model of in-DRAM stochastic-approximate-counting TRR in the
// style of Samsung's DSAC and SK Hynix's PAT (§7.3). These DDR5 mechanisms
// improve on DDR4 TRR but, because of DRAM's severe area budget, still use
// approximate tracking that lets a fraction of aggressors escape between
// mitigations (the paper quotes 13.9% for DSAC and 6.9% for PAT).
//
// The model abstracts the stochastic counter replacement as a per-report
// escape probability: when the tracker would fire for an aggressor, with
// probability Escape the mitigation silently misses it (counts reset, no
// victim refresh). This reproduces the paper's point that even improved
// in-DRAM mitigation "cannot eliminate all forms of Rowhammer attacks" —
// the security watchdog shows residual over-threshold rows under attack.

package mitigation

import (
	"rubix/internal/dram"
	"rubix/internal/metrics"
	"rubix/internal/rng"
	"rubix/internal/tracker"
)

// DSAC is the approximate in-DRAM victim-refresh mitigation.
type DSAC struct {
	dram      *dram.Module
	trk       *tracker.PerRow
	escape    float64
	rng       *rng.Xoshiro256
	refreshes uint64
	escapes   uint64

	rec      *metrics.Recorder
	mActions *metrics.Counter
}

// DSACConfig configures NewDSAC.
type DSACConfig struct {
	TRH int
	// Escape is the probability that a threshold report is missed
	// (0 = 0.139, the paper's DSAC figure; use 0.069 for PAT).
	Escape float64
	Seed   uint64
}

// NewDSAC builds the approximate TRR model over module d.
func NewDSAC(d *dram.Module, cfg DSACConfig) *DSAC {
	t := cfg.TRH / 2
	if t < 1 {
		t = 1
	}
	esc := cfg.Escape
	if esc == 0 {
		esc = 0.139
	}
	return &DSAC{
		dram:   d,
		trk:    tracker.NewPerRow(t),
		escape: esc,
		rng:    rng.NewXoshiro256(cfg.Seed ^ 0xD5AC),
	}
}

// Name implements Mitigator.
func (t *DSAC) Name() string { return "DSAC" }

// SetMetrics implements metrics.Settable: mitigation_actions counts victim
// refreshes (escaped reports are not actions).
func (t *DSAC) SetMetrics(r *metrics.Recorder) {
	t.rec = r
	t.mActions = r.Counter("mitigation_actions")
	metrics.Attach(r, t.trk)
}

// TranslateRow implements Mitigator.
func (t *DSAC) TranslateRow(row uint64) uint64 { return row }

// ReleaseTime implements Mitigator.
func (t *DSAC) ReleaseTime(_ uint64, arrival float64) float64 { return arrival }

// OnACT implements Mitigator.
func (t *DSAC) OnACT(row uint64, actStart float64) {
	if !t.trk.RecordACT(row) {
		return
	}
	if t.rng.Float64() < t.escape {
		// Stochastic counting missed this aggressor: no victim refresh.
		t.escapes++
		return
	}
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
func (t *DSAC) ResetWindow() { t.trk.Reset() }

// Mitigations implements Mitigator.
func (t *DSAC) Mitigations() uint64 { return t.refreshes }

// Escapes reports how many aggressor reports were missed.
func (t *DSAC) Escapes() uint64 { return t.escapes }
