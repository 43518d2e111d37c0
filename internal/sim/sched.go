package sim

import "rubix/internal/cpu"

// coreHeap is an index min-heap over the run's cores, keyed on (Now, ID).
// It replaces the event loop's O(cores) linear scan per event with an
// O(log cores) sift, which matters at the 8-to-64-core configurations of
// the multi-channel studies.
//
// Determinism argument: the linear scan picked the first core whose Now
// was strictly smaller than every earlier core's — i.e. the minimum Now,
// ties broken toward the lowest core index. The heap orders by exactly
// that lexicographic (Now, ID) key, so it pops the identical core at every
// step and the access stream reaching the memory controller is unchanged
// (TestHeapMatchesLinearScan pins this at 4/16/64 cores). Core.Now never
// decreases across Step, so after stepping the minimum we only ever need a
// sift-down.
type coreHeap struct {
	cores []*cpu.Core
}

// newCoreHeap builds a heap over the not-yet-done cores. Establishing the
// heap by repeated sift-down is O(n) and allocation-free beyond the one
// index slice.
//
// cold: one-time setup; the per-step loop only sifts in place.
func newCoreHeap(cores []*cpu.Core) *coreHeap {
	h := &coreHeap{cores: make([]*cpu.Core, 0, len(cores))}
	for _, c := range cores {
		if !c.Done() {
			h.cores = append(h.cores, c)
		}
	}
	for i := len(h.cores)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
	return h
}

func (h *coreHeap) less(i, j int) bool {
	a, b := h.cores[i], h.cores[j]
	return a.Now < b.Now || (a.Now == b.Now && a.ID < b.ID)
}

func (h *coreHeap) siftDown(i int) {
	n := len(h.cores)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h.cores[i], h.cores[m] = h.cores[m], h.cores[i]
		i = m
	}
}

// min returns the earliest core without removing it.
func (h *coreHeap) min() *cpu.Core { return h.cores[0] }

// fixMin restores heap order after the minimum's Now increased.
func (h *coreHeap) fixMin() { h.siftDown(0) }

// popMin removes the earliest core (it retired its instruction target).
func (h *coreHeap) popMin() {
	n := len(h.cores) - 1
	h.cores[0] = h.cores[n]
	h.cores[n] = nil
	h.cores = h.cores[:n]
	if n > 0 {
		h.siftDown(0)
	}
}

// runCores drives the event loop: always advance the earliest core so
// accesses reach the controller in (approximately) global time order. Each
// core step hands its whole MLP burst to the controller as one batch
// (cpu.StepBatch), which is where the batched translation path pays off.
//
// hot: the simulation main loop; every per-step allocation multiplies by
// the instruction budget.
func runCores(cores []*cpu.Core, access cpu.BatchAccessFunc) {
	h := newCoreHeap(cores)
	for len(h.cores) > 0 {
		c := h.min()
		c.StepBatch(access)
		if c.Done() {
			h.popMin()
		} else {
			h.fixMin()
		}
	}
}
