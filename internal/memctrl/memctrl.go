// Package memctrl implements the memory controller: the component that
// receives line-granular requests, applies the memory mapping (possibly
// Rubix), consults the Rowhammer mitigation (row indirection, activation
// throttling), issues the access to the DRAM model, and feeds activations
// back into trackers and the Rubix-D remapping engine.
package memctrl

import (
	"rubix/internal/check"
	"rubix/internal/core"
	"rubix/internal/dram"
	"rubix/internal/mapping"
	"rubix/internal/metrics"
	"rubix/internal/mitigation"
)

// Dynamic is implemented by mappings that react to activations by remapping
// (Rubix-D). The controller charges the cost of any swap it returns, and
// watches Generation to invalidate batch pre-translations: the counter must
// advance every time the mapping's translation changes.
type Dynamic interface {
	NoteActivation(phys uint64) (core.SwapOp, bool)
	Generation() uint64
}

// Controller is the memory controller. It is single-threaded by design,
// mirroring the serial command stream of real hardware.
type Controller struct {
	DRAM *dram.Module
	Map  mapping.Mapper
	Mit  mitigation.Mitigator

	batch        mapping.BatchedMapper // batch view of Map (native or adapter)
	physBuf      []uint64              // AccessBatch translation scratch
	physArr      [16]uint64            // inline backing for physBuf at burst size (no heap alloc)
	dyn          Dynamic               // non-nil when Map is Rubix-D
	mapLatency   float64               // ns added to every access by the mapping logic
	nextReset    float64
	window       float64
	slotBits     uint
	writeFrac    float64
	writeAccum   float64
	remapSwapCnt uint64

	// Metrics handles (nil and no-op when metrics are disabled).
	rec        *metrics.Recorder
	mAccesses  *metrics.Counter
	mRemapSwap *metrics.Counter

	// chk is the paranoid-mode invariant checker; nil when checking is off
	// (the hooks below are branch-only no-ops then).
	chk *check.Checker
}

// Config configures a Controller.
type Config struct {
	DRAM *dram.Module
	Map  mapping.Mapper
	Mit  mitigation.Mitigator
	// MapLatencyNs is the added pipeline latency of the mapping logic
	// (≈1 ns for the 3-cycle K-Cipher at 3 GHz, ~0 for XOR mappings).
	MapLatencyNs float64
	// WriteFraction marks this share of demand accesses as writes
	// (writebacks), charging write-recovery time before precharges and
	// separate CAS-W accounting. Zero keeps the read-only model.
	WriteFraction float64
	// Metrics, when non-nil, receives controller counters and swap events.
	Metrics *metrics.Recorder
	// Check, when non-nil, receives sampled mapping spot-checks and
	// demand-activation counts for conservation verification.
	Check *check.Checker
}

// New builds a controller. If the mapper implements Dynamic (Rubix-D), its
// remap engine is wired into the activation path automatically.
func New(cfg Config) *Controller {
	c := &Controller{
		DRAM:       cfg.DRAM,
		Map:        cfg.Map,
		batch:      mapping.Batched(cfg.Map),
		Mit:        cfg.Mit,
		mapLatency: cfg.MapLatencyNs,
		window:     cfg.DRAM.Timing.RefreshWindow,
		slotBits:   cfg.DRAM.Geom.SlotBits(),
		writeFrac:  cfg.WriteFraction,
	}
	c.physBuf = c.physArr[:0]
	c.nextReset = c.window
	if d, ok := cfg.Map.(Dynamic); ok {
		c.dyn = d
	}
	c.rec = cfg.Metrics
	c.mAccesses = cfg.Metrics.Counter("memctrl_accesses")
	c.mRemapSwap = cfg.Metrics.Counter("memctrl_remap_swaps")
	c.chk = cfg.Check
	return c
}

// Access performs one line-granular memory access issued at `arrival` ns and
// returns the time at which data is available.
func (c *Controller) Access(line uint64, arrival float64) float64 {
	return c.accessMapped(line, c.Map.Map(line), arrival)
}

// AccessBatch performs a batch of line-granular accesses all issued at
// `arrival` ns — the shape of one core's MLP burst, whose misses a real
// controller receives in its queue together — and returns the latest
// completion. The whole batch is translated up front through the batch
// mapper; under a dynamic mapping, an access that triggers a remap episode
// advances the mapper's generation and the not-yet-issued tail is
// re-translated, so every access observes exactly the mapping state it
// would have seen issued one at a time (the paranoid-mode collision window
// checks this across remap steps).
//
// hot: the PR 7 batched translation path; the phys scratch buffer is
// reused across bursts and every reached MapBatch must stay loop-only.
func (c *Controller) AccessBatch(lines []uint64, arrival float64) float64 {
	if len(lines) == 0 {
		return arrival
	}
	if cap(c.physBuf) < len(lines) {
		//lint:allow hotalloc scratch-buffer growth is monotone and stops at the largest burst ever seen; steady state is allocation-free
		c.physBuf = make([]uint64, len(lines))
	}
	phys := c.physBuf[:len(lines)]
	c.batch.MapBatch(lines, phys)
	var gen uint64
	if c.dyn != nil {
		gen = c.dyn.Generation()
	}
	maxCompletion := arrival
	for i, line := range lines {
		if c.dyn != nil {
			if g := c.dyn.Generation(); g != gen {
				// A remap episode invalidated the pre-translation; redo
				// the tail under the new circuit state.
				c.batch.MapBatch(lines[i:], phys[i:])
				gen = g
			}
		}
		if comp := c.accessMapped(line, phys[i], arrival); comp > maxCompletion {
			maxCompletion = comp
		}
	}
	return maxCompletion
}

// accessMapped is the shared post-translation body of Access and
// AccessBatch. phys must be Map's translation of line under the current
// mapping state; the translation itself is side-effect-free, so computing
// it before the access counter and window bookkeeping is equivalent to the
// historical in-line order.
//
// hot: one call per access.
func (c *Controller) accessMapped(line, phys uint64, arrival float64) float64 {
	// Deterministic write marking: every writeFrac-th access is a
	// writeback. No float state is read between here and the DRAM access,
	// so marking up front is equivalent to marking just before it.
	write := false
	if c.writeFrac > 0 {
		c.writeAccum += c.writeFrac
		if c.writeAccum >= 1 {
			c.writeAccum--
			write = true
		}
	}
	c.mAccesses.Inc()
	for arrival >= c.nextReset {
		c.Mit.ResetWindow()
		c.nextReset += c.window
	}

	if c.chk != nil {
		c.chk.OnMap(line, phys)
	}
	arrival += c.mapLatency

	// Row-migration indirection (AQUA/SRS): redirect to the row's current
	// physical location, preserving the slot within the row.
	row := c.DRAM.Geom.GlobalRow(phys)
	cur := c.Mit.TranslateRow(row)
	if cur != row {
		//lint:allow addrspace row→phys reassembly is GlobalRow's declared inverse: the migrated row id replaces the row bits, the slot within the row is preserved
		phys = cur<<c.slotBits | phys&((1<<c.slotBits)-1)
	}

	// Rate control (BlockHammer): only activations need a grant.
	start := arrival
	if !c.DRAM.WouldHit(phys) {
		start = c.Mit.ReleaseTime(cur, arrival)
	}

	res := c.DRAM.AccessRW(phys, start, write)
	if res.Activated {
		if c.chk != nil {
			c.chk.OnControllerACT()
		}
		c.Mit.OnACT(cur, res.ActStart)
		if c.dyn != nil {
			if op, ok := c.dyn.NoteActivation(phys); ok {
				c.chargeSwap(op, res.ActStart)
			}
		}
	}
	return res.Completion
}

// chargeSwap accounts the DRAM cost of a Rubix-D gang swap: 3 activations
// (X, Y, X), 4×gangSize column accesses, and channel occupancy for the
// duration of the three row cycles and the data bursts.
func (c *Controller) chargeSwap(op core.SwapOp, at float64) {
	c.DRAM.ForceActivate(op.RowX, at)
	c.DRAM.ForceActivate(op.RowY, at)
	c.DRAM.ForceActivate(op.RowX, at)
	c.DRAM.AddExtraCAS(op.CAS)
	c.DRAM.BlockChannel(op.RowX, at, swapBlockNs(c.DRAM.Timing, op))
	c.remapSwapCnt++
	c.mRemapSwap.Inc()
	c.rec.Event(metrics.EvRemapSwap, at, op.RowX)
}

// swapBlockNs returns the channel-occupancy cost of one Rubix-D gang swap:
// the row cycles of its activations plus the data bursts of its column
// accesses.
func swapBlockNs(t dram.Timing, op core.SwapOp) float64 {
	return float64(op.Acts)*(t.TRCD+t.TRP) + float64(op.CAS)*t.TBurst
}

// RemapSwaps reports the number of Rubix-D gang swaps charged so far.
func (c *Controller) RemapSwaps() uint64 { return c.remapSwapCnt }
