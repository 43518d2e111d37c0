// Package cpu provides the trace-driven core model.
//
// The paper simulates 4 (or 8) out-of-order, 8-wide cores at 3 GHz in gem5.
// For the memory-system questions Rubix answers, the core's only role is to
// convert memory latency into slowdown: each core retires instructions at a
// base CPI and, at a rate given by the workload's MPKI, issues an LLC miss
// whose latency stalls the core divided by the workload's memory-level
// parallelism (MLP). This reproduces the feedback loop — mitigation stalls →
// longer miss latency → lower IPC — that produces the paper's slowdowns.
package cpu

import (
	"rubix/internal/rng"
	"rubix/internal/workload"
)

// Config holds core-model parameters.
type Config struct {
	FreqGHz float64 // core clock (paper: 3 GHz)
	BaseCPI float64 // cycles per instruction absent LLC misses (8-wide OoO)
}

// DefaultConfig returns the paper's core configuration: 3 GHz, 8-wide
// out-of-order modelled as a base CPI of 0.4.
func DefaultConfig() Config { return Config{FreqGHz: 3.0, BaseCPI: 0.4} }

// Core is one simulated core running one workload.
type Core struct {
	ID      int
	Now     float64 // ns
	Retired uint64
	Target  uint64

	cfg     Config
	profile workload.Profile
	mlpCap  int // max overlapped misses (MSHR-limited MLP)
	meanGap float64
	rng     *rng.Xoshiro256

	// pipelined batches: high-MLP workloads keep several miss bursts in
	// flight, so a burst's latency (and its variance from bank conflicts)
	// is hidden behind subsequent bursts' compute and issue;
	// dependent-chain workloads (low MLP) stall on every burst.
	pending []float64 // completion times of in-flight bursts (ring)
	pHead   int

	lines    []uint64   // StepBatch burst scratch, capacity >= mlpCap
	linesArr [16]uint64 // inline backing for lines at typical MLP (no heap alloc)
}

// New builds a core that will retire target instructions of the given
// workload profile.
func New(id int, cfg Config, p workload.Profile, target uint64, seed uint64) *Core {
	mpki := p.MPKI
	if mpki <= 0 {
		mpki = 0.001 // effectively no misses, but keep the loop finite
	}
	mlp := int(p.MLP)
	if mlp < 1 {
		mlp = 1
	}
	c := &Core{
		ID:      id,
		Target:  target,
		cfg:     cfg,
		profile: p,
		mlpCap:  mlp,
		meanGap: 1000 / mpki,
		rng:     rng.NewXoshiro256(seed),
	}
	// High-MLP workloads keep `mlp` bursts in flight (deep MSHR + memory
	// controller queues); dependent-chain workloads (mlp < 4) stall on
	// every burst.
	if mlp >= 4 {
		c.pending = make([]float64, mlp)
	} else {
		c.pending = make([]float64, 1)
	}
	if mlp <= len(c.linesArr) {
		c.lines = c.linesArr[:0]
	} else {
		c.lines = make([]uint64, 0, mlp)
	}
	return c
}

// Done reports whether the core has retired its instruction target.
func (c *Core) Done() bool { return c.Retired >= c.Target }

// BatchAccessFunc issues a batch of memory accesses, all arriving at the
// same time — one core's MLP burst — and returns the latest completion
// (at least arrival). The memory controller's AccessBatch provides it.
type BatchAccessFunc func(lines []uint64, arrival float64) float64

// StepBatch simulates one memory-level-parallel episode: the compute gap
// leading up to the next LLC miss, then a burst of overlapped misses.
// Misses that belong to one burst (Generator.InBurst) are issued at the
// same time, as a real core's MSHRs would, up to the workload's MLP: the
// burst's addresses are collected first — generator and gap-RNG draws
// interleave in the order of the retired scalar Step, the oracle
// TestStepBatchMatchesStep pins it against — then handed to access as one
// batch, and the core stalls until the last of them completes.
//
// hot: one call per simulated miss burst.
func (c *Core) StepBatch(access BatchAccessFunc) {
	gap := c.rng.Geometric(c.meanGap)
	c.Now += float64(gap) * c.cfg.BaseCPI / c.cfg.FreqGHz
	c.Retired += uint64(gap)

	issue := c.Now
	c.lines = c.lines[:0]
	for k := 0; ; k++ {
		//lint:allow hotalloc append reuses the burst buffer truncated above; capacity growth stops at mlpCap after the first bursts
		c.lines = append(c.lines, c.profile.Gen.Next())
		if k+1 >= c.mlpCap || !c.profile.Gen.InBurst() {
			break
		}
		// The compute between overlapped misses also overlaps with the
		// outstanding memory time.
		g := c.rng.Geometric(c.meanGap)
		c.Retired += uint64(g)
		c.Now += float64(g) * c.cfg.BaseCPI / c.cfg.FreqGHz
	}
	c.finishBurst(access(c.lines, issue))
}

// finishBurst retires one burst's completion time into the core clock: the
// pending ring hides it behind newer bursts for high-MLP workloads, while
// dependent-chain workloads stall on it immediately.
func (c *Core) finishBurst(maxCompletion float64) {
	if len(c.pending) > 1 {
		// Stall on the oldest in-flight burst's completion; newer bursts
		// drain while the core computes onward.
		if old := c.pending[c.pHead]; old > c.Now {
			c.Now = old
		}
		c.pending[c.pHead] = maxCompletion
		c.pHead = (c.pHead + 1) % len(c.pending)
		return
	}
	if maxCompletion > c.Now {
		c.Now = maxCompletion
	}
}

// IPC returns the core's achieved instructions per cycle.
func (c *Core) IPC() float64 {
	if c.Now <= 0 {
		return 0
	}
	return float64(c.Retired) / (c.Now * c.cfg.FreqGHz)
}

// WorkloadName returns the name of the workload the core runs.
func (c *Core) WorkloadName() string { return c.profile.Gen.Name() }
