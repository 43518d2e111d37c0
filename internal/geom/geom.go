// Package geom describes DRAM geometry and the physical line-address codec.
//
// The simulator works in units of cache lines (64 B by default). A memory
// mapping (package mapping and package core) is a bijection from *program*
// line addresses to *physical* line indexes; this package defines how a
// physical line index decomposes into (channel, rank, bank, row, slot).
//
// The fixed physical layout, LSB to MSB, is
//
//	slot | channel | rank | bank | row
//
// so that physLine / LinesPerRow is a *global row index* that uniquely names
// one DRAM row across the whole memory system, which makes per-row
// activation accounting mapping-agnostic. All dimension sizes must be powers
// of two.
package geom

import (
	"fmt"
	"math/bits"
)

// Geometry describes a DRAM memory system.
//
// The decoders that every simulated access calls (GlobalRow, Slot, BankID,
// ChannelOf and the BanksTotal that BankID uses) take a pointer receiver,
// so a call through dram.Module.Geom does not copy the struct. String keeps
// a value receiver, so fmt formats a Geometry value with it.
type Geometry struct {
	Channels    int // number of memory channels
	Ranks       int // ranks per channel
	Banks       int // banks per rank
	RowsPerBank int // rows in each bank
	RowBytes    int // bytes per row (row-buffer size)
	LineBytes   int // bytes per cache line

	linesPerRow int
	slotBits    uint
	chanBits    uint
	rankBits    uint
	bankBits    uint
	rowBits     uint
}

// Location is a fully decoded physical line position.
type Location struct {
	Channel int
	Rank    int
	Bank    int    // bank within rank
	Row     int    // row within bank
	Slot    int    // line within row
	Global  uint64 // global row index (unique across the system)
}

// DDR4_16GB returns the paper's baseline configuration (Table 1): 16 GB,
// one channel, one rank, 16 banks, 128K rows per bank, 8 KB rows, 64 B lines.
func DDR4_16GB() Geometry {
	g, err := New(1, 1, 16, 128*1024, 8*1024, 64)
	if err != nil {
		//lint:allow panicpolicy static configuration validated at test time; New cannot fail on these literals
		panic(err)
	}
	return g
}

// DDR4_32GB2Ch returns the scaled-up configuration of Figure 15 with two
// channels (32 GB total).
func DDR4_32GB2Ch() Geometry {
	g, err := New(2, 1, 16, 128*1024, 8*1024, 64)
	if err != nil {
		//lint:allow panicpolicy static configuration validated at test time; New cannot fail on these literals
		panic(err)
	}
	return g
}

// DDR4_32GB4Ch returns the scaled-up configuration of Figure 15 with four
// channels (32 GB total, 64K rows per bank).
func DDR4_32GB4Ch() Geometry {
	g, err := New(4, 1, 16, 64*1024, 8*1024, 64)
	if err != nil {
		//lint:allow panicpolicy static configuration validated at test time; New cannot fail on these literals
		panic(err)
	}
	return g
}

// Illustrative4GB returns the simple single-bank model of Figure 4: 4 GB,
// one bank, 1M rows of 4 KB each.
func Illustrative4GB() Geometry {
	g, err := New(1, 1, 1, 1024*1024, 4*1024, 64)
	if err != nil {
		//lint:allow panicpolicy static configuration validated at test time; New cannot fail on these literals
		panic(err)
	}
	return g
}

// New validates and builds a Geometry. All sizes must be powers of two and
// RowBytes must be a multiple of LineBytes.
func New(channels, ranks, banks, rowsPerBank, rowBytes, lineBytes int) (Geometry, error) {
	g := Geometry{
		Channels:    channels,
		Ranks:       ranks,
		Banks:       banks,
		RowsPerBank: rowsPerBank,
		RowBytes:    rowBytes,
		LineBytes:   lineBytes,
	}
	for _, d := range []struct {
		name string
		v    int
	}{
		{"channels", channels}, {"ranks", ranks}, {"banks", banks},
		{"rowsPerBank", rowsPerBank}, {"rowBytes", rowBytes}, {"lineBytes", lineBytes},
	} {
		if d.v <= 0 || d.v&(d.v-1) != 0 {
			return Geometry{}, fmt.Errorf("geom: %s must be a positive power of two, got %d", d.name, d.v)
		}
	}
	if rowBytes < lineBytes {
		return Geometry{}, fmt.Errorf("geom: rowBytes (%d) smaller than lineBytes (%d)", rowBytes, lineBytes)
	}
	g.linesPerRow = rowBytes / lineBytes
	g.slotBits = log2(g.linesPerRow)
	g.chanBits = log2(channels)
	g.rankBits = log2(ranks)
	g.bankBits = log2(banks)
	g.rowBits = log2(rowsPerBank)
	return g, nil
}

func log2(v int) uint { return uint(bits.TrailingZeros64(uint64(v))) }

// LinesPerRow reports the number of cache lines per DRAM row.
func (g Geometry) LinesPerRow() int { return g.linesPerRow }

// SlotBits reports the number of line-in-row address bits.
func (g Geometry) SlotBits() uint { return g.slotBits }

// LineBits reports the width of a physical line address in bits
// (the paper's 28-bit address for the 16 GB configuration).
func (g Geometry) LineBits() uint {
	return g.slotBits + g.chanBits + g.rankBits + g.bankBits + g.rowBits
}

// TotalLines reports the number of cache lines in the memory system.
func (g Geometry) TotalLines() uint64 { return uint64(1) << g.LineBits() }

// TotalRows reports the number of DRAM rows across all channels, ranks, and
// banks (global row index space).
func (g Geometry) TotalRows() uint64 { return g.TotalLines() >> g.slotBits }

// TotalBytes reports the memory capacity in bytes.
func (g Geometry) TotalBytes() uint64 { return g.TotalLines() * uint64(g.LineBytes) }

// BanksTotal reports the number of independent banks across the system.
func (g *Geometry) BanksTotal() int { return g.Channels * g.Ranks * g.Banks }

// PageLines reports the number of lines in a 4 KB OS page.
func (g Geometry) PageLines() int { return 4096 / g.LineBytes }

// GlobalRow returns the global row index of a physical line index.
func (g *Geometry) GlobalRow(physLine uint64) uint64 { return physLine >> g.slotBits }

// Slot returns the line-within-row slot of a physical line index.
func (g *Geometry) Slot(physLine uint64) int {
	return int(physLine & (uint64(g.linesPerRow) - 1))
}

// Decode decomposes a physical line index into a full Location.
func (g Geometry) Decode(physLine uint64) Location {
	var loc Location
	loc.Slot = g.Slot(physLine)
	gr := g.GlobalRow(physLine)
	loc.Global = gr
	loc.Channel = int(gr & (uint64(g.Channels) - 1))
	gr >>= g.chanBits
	loc.Rank = int(gr & (uint64(g.Ranks) - 1))
	gr >>= g.rankBits
	loc.Bank = int(gr & (uint64(g.Banks) - 1))
	gr >>= g.bankBits
	loc.Row = int(gr)
	return loc
}

// Encode is the inverse of Decode. Location.Global is ignored.
func (g Geometry) Encode(loc Location) uint64 {
	gr := uint64(loc.Row)
	gr = gr<<g.bankBits | uint64(loc.Bank)
	gr = gr<<g.rankBits | uint64(loc.Rank)
	gr = gr<<g.chanBits | uint64(loc.Channel)
	return gr<<g.slotBits | uint64(loc.Slot)
}

// BankID returns a dense index in [0, BanksTotal()) identifying the bank of
// a global row index.
func (g *Geometry) BankID(globalRow uint64) int {
	return int(globalRow & (uint64(g.BanksTotal()) - 1))
}

// RowInBank returns the row-within-bank of a global row index.
func (g Geometry) RowInBank(globalRow uint64) int {
	return int(globalRow >> (g.chanBits + g.rankBits + g.bankBits))
}

// ChannelOf returns the channel of a global row index.
func (g *Geometry) ChannelOf(globalRow uint64) int {
	return int(globalRow & (uint64(g.Channels) - 1))
}

// String implements fmt.Stringer.
func (g Geometry) String() string {
	return fmt.Sprintf("%dGB: %dch x %drank x %dbank x %drows, %dB rows, %dB lines",
		g.TotalBytes()>>30, g.Channels, g.Ranks, g.Banks, g.RowsPerBank, g.RowBytes, g.LineBytes)
}
