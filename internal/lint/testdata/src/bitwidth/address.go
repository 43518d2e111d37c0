package bitwidth

import "mapping"

// Direct narrows a mapper result to 32 bits: flagged.
func Direct(m mapping.Mapper, line uint64) uint32 {
	row := m.Map(line)
	return uint32(row) // want "narrowing conversion from 64-bit uint64 to 32-bit uint32"
}

// shift drops three bits; TestTransferSummary pins that its parameter
// reaches its result.
func shift(v uint64) uint64 {
	return v >> 3
}

// Indirect narrows a mapper result after a helper call: still 64 bits wide
// at the conversion, so flagged.
func Indirect(m mapping.Mapper, line uint64) uint16 {
	r := shift(m.Map(line))
	return uint16(r) // want "narrowing conversion from 64-bit uint64 to 16-bit uint16"
}

// Masked caps the operand to the destination width first: allowed.
func Masked(m mapping.Mapper, line uint64) uint32 {
	return uint32(m.Map(line) & 0xffffffff)
}

// Allowed documents a deliberate truncation of an address: allowed.
func Allowed(m mapping.Mapper, line uint64) uint8 {
	return uint8(m.Map(line)) //lint:allow bitwidth fixture: only the low byte keys the histogram bucket
}

// Wide converts to a 64-bit type and loses nothing: allowed.
func Wide(m mapping.Mapper, line uint64) uint64 {
	return uint64(int64(m.Map(line)))
}

// BatchTable implements the batched translation surface.
type BatchTable struct{ bank []uint32 }

// MapBatch narrows a batch element without masking: flagged.
func (t *BatchTable) MapBatch(lines, phys []uint64) {
	for i, line := range lines {
		t.bank[i] = uint32(line) // want "narrowing conversion from 64-bit uint64 to 32-bit uint32"
		phys[i] = line
	}
}

// UnmapBatch masks each element before narrowing: allowed.
func (t *BatchTable) UnmapBatch(phys, lines []uint64) {
	for i := range phys {
		t.bank[i] = uint32(phys[i] & 0xffffffff)
		lines[i] = phys[i]
	}
}
