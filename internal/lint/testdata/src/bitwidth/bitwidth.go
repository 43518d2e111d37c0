// Package bitwidth is golden testdata for the bit-width analyzer.
package bitwidth

import "math"

// ShiftPastWidth always yields zero: flagged.
func ShiftPastWidth(x uint32) uint32 {
	return x << 32 // want "shift by 32 on a 32-bit operand"
}

// ShiftAssignPastWidth is the compound-assignment form: flagged.
func ShiftAssignPastWidth(x uint16) uint16 {
	x >>= 16 // want "shift by 16 on a 16-bit operand"
	return x
}

// ShiftInRange is ordinary address arithmetic: allowed.
func ShiftInRange(x uint64, bits uint) uint64 {
	return x<<3 | x>>(64-bits)
}

// MaskPastDomain has bits above the 40-bit line-address domain: flagged.
func MaskPastDomain(addr uint64) uint64 {
	return addr & 0x1FF_FFFF_FFFF // want "mask 0x1ffffffffff has bits above the 40-bit line-address domain"
}

// MaskInDomain is allowed (36 bits fit the address domain).
func MaskInDomain(addr uint64) uint64 {
	return addr & 0xF_FFFF_FFFF
}

// NarrowUnguarded may truncate: flagged.
func NarrowUnguarded(line uint64) uint32 {
	return uint32(line) // want "narrowing conversion from 64-bit uint64 to 32-bit uint32"
}

// NarrowSum narrows a compound operand, which the mask fix parenthesizes:
// flagged.
func NarrowSum(base, off uint64) uint32 {
	return uint32(base + off) // want "narrowing conversion from 64-bit uint64 to 32-bit uint32"
}

// NarrowMasked provably fits: allowed.
func NarrowMasked(line uint64) uint32 {
	return uint32(line & 0xFFFF_FFFF)
}

// NarrowShifted keeps only the high half: allowed.
func NarrowShifted(line uint64) uint32 {
	return uint32(line >> 32)
}

// NarrowGuarded range-checks first: allowed.
func NarrowGuarded(line uint64) (uint32, bool) {
	if line > math.MaxUint32 {
		return 0, false
	}
	return uint32(line), true
}

// NarrowAnnotated documents a deliberate truncation: allowed.
func NarrowAnnotated(word uint64) uint32 {
	//lint:allow bitwidth deliberate low-half split of a 64-bit word
	return uint32(word)
}

// NarrowSignedTarget loses the sign bit too: flagged.
func NarrowSignedTarget(row uint64) int32 {
	return int32(row) // want "narrowing conversion from 64-bit uint64 to 32-bit int32"
}

// WidenIsFine: int is 64-bit on supported hosts, no narrowing.
func WidenIsFine(slot uint32) int {
	return int(slot)
}
