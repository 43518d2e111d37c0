package geom

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestPaperBaseline(t *testing.T) {
	g := DDR4_16GB()
	if got := g.TotalBytes(); got != 16<<30 {
		t.Fatalf("capacity = %d, want 16 GB", got)
	}
	if got := g.LineBits(); got != 28 {
		t.Fatalf("line-address width = %d, want the paper's 28 bits", got)
	}
	if got := g.LinesPerRow(); got != 128 {
		t.Fatalf("lines per row = %d, want 128 (8 KB rows / 64 B lines)", got)
	}
	if got := g.TotalRows(); got != 2*1024*1024 {
		t.Fatalf("total rows = %d, want 2M (128K x 16 banks)", got)
	}
	if got := g.BanksTotal(); got != 16 {
		t.Fatalf("banks = %d, want 16", got)
	}
	if got := g.PageLines(); got != 64 {
		t.Fatalf("page lines = %d, want 64", got)
	}
}

func TestMultiChannelGeometries(t *testing.T) {
	g2 := DDR4_32GB2Ch()
	if g2.TotalBytes() != 32<<30 || g2.Channels != 2 {
		t.Fatalf("2-channel geometry wrong: %v", g2)
	}
	g4 := DDR4_32GB4Ch()
	if g4.TotalBytes() != 32<<30 || g4.Channels != 4 {
		t.Fatalf("4-channel geometry wrong: %v", g4)
	}
}

func TestIllustrative(t *testing.T) {
	g := Illustrative4GB()
	if g.TotalBytes() != 4<<30 {
		t.Fatalf("capacity = %d, want 4 GB", g.TotalBytes())
	}
	if g.TotalRows() != 1024*1024 {
		t.Fatalf("rows = %d, want 1M", g.TotalRows())
	}
	if g.LinesPerRow() != 64 {
		t.Fatalf("lines per row = %d, want 64 (4 KB rows)", g.LinesPerRow())
	}
}

func TestNewRejectsBadShapes(t *testing.T) {
	cases := [][6]int{
		{3, 1, 16, 1024, 8192, 64},  // non-power-of-two channels
		{1, 1, 0, 1024, 8192, 64},   // zero banks
		{1, 1, 16, 1000, 8192, 64},  // non-power-of-two rows
		{1, 1, 16, 1024, 32, 64},    // row smaller than line
		{1, 1, 16, 1024, 8192, -64}, // negative line
	}
	for _, c := range cases {
		if _, err := New(c[0], c[1], c[2], c[3], c[4], c[5]); err == nil {
			t.Errorf("New(%v) should fail", c)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, g := range []Geometry{DDR4_16GB(), DDR4_32GB2Ch(), DDR4_32GB4Ch(), Illustrative4GB()} {
		f := func(raw uint64) bool {
			phys := raw & (g.TotalLines() - 1)
			loc := g.Decode(phys)
			return g.Encode(loc) == phys
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Fatalf("%v: %v", g, err)
		}
	}
}

func TestDecodeFieldsInRange(t *testing.T) {
	g := DDR4_32GB4Ch()
	f := func(raw uint64) bool {
		phys := raw & (g.TotalLines() - 1)
		loc := g.Decode(phys)
		return loc.Channel >= 0 && loc.Channel < g.Channels &&
			loc.Rank >= 0 && loc.Rank < g.Ranks &&
			loc.Bank >= 0 && loc.Bank < g.Banks &&
			loc.Row >= 0 && loc.Row < g.RowsPerBank &&
			loc.Slot >= 0 && loc.Slot < g.LinesPerRow() &&
			loc.Global == g.GlobalRow(phys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalRowConsistency(t *testing.T) {
	g := DDR4_16GB()
	// Lines in the same row share a global row; adjacent rows differ.
	base := uint64(12345) << g.SlotBits()
	for slot := uint64(0); slot < uint64(g.LinesPerRow()); slot++ {
		if g.GlobalRow(base|slot) != 12345 {
			t.Fatalf("slot %d escaped its row", slot)
		}
	}
	if g.GlobalRow(base+uint64(g.LinesPerRow())) != 12346 {
		t.Fatal("next row-block should be global row + 1")
	}
}

func TestBankIDAndChannel(t *testing.T) {
	g := DDR4_32GB2Ch()
	f := func(raw uint64) bool {
		phys := raw & (g.TotalLines() - 1)
		loc := g.Decode(phys)
		gr := g.GlobalRow(phys)
		bid := g.BankID(gr)
		// Dense bank id must be stable per (channel, rank, bank) triple and
		// within range.
		if bid < 0 || bid >= g.BanksTotal() {
			return false
		}
		if g.ChannelOf(gr) != loc.Channel {
			return false
		}
		return g.RowInBank(gr) == loc.Row
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestBankIDDistinguishesBanks(t *testing.T) {
	g := DDR4_16GB()
	seen := map[int]bool{}
	for r := uint64(0); r < uint64(g.BanksTotal()); r++ {
		seen[g.BankID(r)] = true
	}
	if len(seen) != g.BanksTotal() {
		t.Fatalf("BankID covered %d of %d banks", len(seen), g.BanksTotal())
	}
}

// TestGeometryFormatsAsString pins String's value receiver: with a pointer
// receiver, fmt would print a Geometry value as a raw struct.
func TestGeometryFormatsAsString(t *testing.T) {
	g := DDR4_16GB()
	const want = "16GB: 1ch x 1rank x 16bank x 131072rows, 8192B rows, 64B lines"
	if got := fmt.Sprint(DDR4_16GB()); got != want {
		t.Fatalf("fmt.Sprint(DDR4_16GB()) = %q, want %q", got, want)
	}
	if got := fmt.Sprintf("%s", g); got != want {
		t.Fatalf(`fmt.Sprintf("%%s", g) = %q, want %q`, got, want)
	}
}
