// Package mapping is a miniature of the real address-mapping package: the
// bitwidth and addrspace fixtures translate addresses through its Map and
// Unmap.
package mapping

// Mapper maps line addresses.
type Mapper interface {
	Map(line uint64) uint64
	Unmap(phys uint64) uint64
}

// Sequential is the identity mapping.
type Sequential struct{}

// Map returns the line unchanged.
func (Sequential) Map(line uint64) uint64 { return line }

// Unmap returns the physical line unchanged.
func (Sequential) Unmap(phys uint64) uint64 { return phys }

// MapBatch is the batched surface stub: element writes into phys taint the
// caller-visible container the way the real adapters do.
func (s Sequential) MapBatch(lines, phys []uint64) {
	for i, line := range lines {
		phys[i] = s.Map(line)
	}
}
