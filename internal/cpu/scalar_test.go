package cpu

// The scalar issue path, kept as the oracle the production StepBatch is
// differentially tested against: no non-test code issues accesses one at
// a time.

// AccessFunc issues one memory access at a given time and returns its
// completion time.
type AccessFunc func(line uint64, arrival float64) float64

// Serial adapts a per-line AccessFunc to the batch shape by issuing the
// batch one access at a time, in order, at the common arrival time.
func Serial(f AccessFunc) BatchAccessFunc {
	return func(lines []uint64, arrival float64) float64 {
		maxCompletion := arrival
		for _, line := range lines {
			if comp := f(line, arrival); comp > maxCompletion {
				maxCompletion = comp
			}
		}
		return maxCompletion
	}
}

// Step is the retired scalar StepBatch: it issues each miss of a burst
// through access as it is generated. Step(f) and StepBatch(Serial(f)) are
// byte-identical (TestStepBatchMatchesStep).
func (c *Core) Step(access AccessFunc) {
	gap := c.rng.Geometric(c.meanGap)
	c.Now += float64(gap) * c.cfg.BaseCPI / c.cfg.FreqGHz
	c.Retired += uint64(gap)

	issue := c.Now
	maxCompletion := issue
	for k := 0; ; k++ {
		addr := c.profile.Gen.Next()
		if comp := access(addr, issue); comp > maxCompletion {
			maxCompletion = comp
		}
		if k+1 >= c.mlpCap || !c.profile.Gen.InBurst() {
			break
		}
		// The compute between overlapped misses also overlaps with the
		// outstanding memory time.
		g := c.rng.Geometric(c.meanGap)
		c.Retired += uint64(g)
		c.Now += float64(g) * c.cfg.BaseCPI / c.cfg.FreqGHz
	}
	c.finishBurst(maxCompletion)
}
