package memctrl

// Access is the retired scalar entry point, kept as the oracle AccessBatch
// is differentially tested against (TestAccessBatchMatchesAccess): one
// line-granular access issued at `arrival` ns, translated through the
// scalar Map, returning the time at which data is available.
func (c *Controller) Access(line uint64, arrival float64) float64 {
	return c.accessMapped(line, c.Map.Map(line), arrival)
}
