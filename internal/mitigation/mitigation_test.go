package mitigation

import (
	"testing"

	"rubix/internal/dram"
	"rubix/internal/geom"
)

func newDRAM(t *testing.T, trh int) *dram.Module {
	t.Helper()
	return dram.New(dram.Config{Geometry: geom.DDR4_16GB(), Timing: dram.DDR4_2400(), TRH: trh})
}

func TestByName(t *testing.T) {
	d := newDRAM(t, 128)
	for _, name := range []string{"none", "aqua", "srs", "blockhammer", "bh", "trr"} {
		m, err := ByName(name, d, 128, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Name() == "" {
			t.Fatalf("%s: empty name", name)
		}
	}
	if _, err := ByName("nosuch", d, 128, 1); err == nil {
		t.Fatal("unknown scheme should error")
	}
}

func TestNoneIsTransparent(t *testing.T) {
	var m Mitigator = NewNone()
	if m.TranslateRow(42) != 42 {
		t.Fatal("None must not translate")
	}
	if m.ReleaseTime(42, 100) != 100 {
		t.Fatal("None must not delay")
	}
	m.OnACT(42, 0)
	if m.Mitigations() != 0 {
		t.Fatal("None must not mitigate")
	}
}

// --- indirection -------------------------------------------------------------

func TestIndirectionRelocate(t *testing.T) {
	in := newIndirection()
	if in.current(5) != 5 {
		t.Fatal("identity by default")
	}
	in.relocate(5, 100)
	if in.current(5) != 100 || in.original(100) != 5 {
		t.Fatal("relocation not recorded")
	}
	// Move again: original key follows the content.
	in.relocate(100, 200)
	if in.current(5) != 200 || in.original(200) != 5 {
		t.Fatal("second relocation broke the chain")
	}
	// Moving home again erases the entry.
	in.relocate(200, 5)
	if in.fwd.Len() != 0 || in.rev.Len() != 0 {
		t.Fatal("relocating home should clear maps")
	}
}

func TestIndirectionSwap(t *testing.T) {
	in := newIndirection()
	in.swap(1, 2)
	if in.current(1) != 2 || in.current(2) != 1 {
		t.Fatal("swap not recorded")
	}
	// Swapping back restores identity.
	in.swap(1, 2)
	if in.current(1) != 1 || in.current(2) != 2 {
		t.Fatal("double swap should restore identity")
	}
	if in.fwd.Len() != 0 {
		t.Fatal("identity swaps should leave no entries")
	}
	// Chain: 1→2, then 2's new content (orig 1) swaps with 3.
	in.swap(1, 2)
	in.swap(2, 3)
	if in.current(1) != 3 {
		t.Fatalf("content of 1 should be at 3, got %d", in.current(1))
	}
}

// --- AQUA ---------------------------------------------------------------------

func TestAQUAMigratesAtHalfThreshold(t *testing.T) {
	d := newDRAM(t, 128)
	a := NewAQUA(d, AQUAConfig{TRH: 128})
	row := uint64(77)
	for i := 0; i < 63; i++ {
		a.OnACT(row, float64(i))
	}
	if a.Mitigations() != 0 {
		t.Fatal("migrated before T_RH/2")
	}
	a.OnACT(row, 64)
	if a.Mitigations() != 1 {
		t.Fatalf("migrations = %d, want 1 at T_RH/2 = 64", a.Mitigations())
	}
	// The row now lives in the quarantine region.
	cur := a.TranslateRow(row)
	if cur == row {
		t.Fatal("aggressor not relocated")
	}
	if cur < d.Geom.TotalRows()-65536 {
		t.Fatalf("destination %d outside the quarantine region", cur)
	}
}

func TestAQUAChargesDRAM(t *testing.T) {
	d := newDRAM(t, 128)
	a := NewAQUA(d, AQUAConfig{TRH: 128, MigrateNs: 2000})
	for i := 0; i <= 64; i++ {
		a.OnACT(7, float64(i))
	}
	s := d.Stats()
	if s.ExtraActs != 2 {
		t.Fatalf("extra ACTs = %d, want 2 (read src, write dst)", s.ExtraActs)
	}
	if s.ExtraCAS != uint64(2*d.Geom.LinesPerRow()) {
		t.Fatalf("extra CAS = %d, want a full row each way", s.ExtraCAS)
	}
	// Channel blocked: a subsequent access must land after the migration.
	res := d.Access(7<<d.Geom.SlotBits(), 65)
	if res.Completion < 2000 {
		t.Fatalf("access at %.0f ignored the migration channel block", res.Completion)
	}
}

func TestAQUAQuarantineWrapRestoresOccupant(t *testing.T) {
	d := newDRAM(t, 128)
	a := NewAQUA(d, AQUAConfig{TRH: 128, QuarantineRows: 2})
	hammer := func(row uint64) {
		for i := 0; i <= 64; i++ {
			a.OnACT(a.TranslateRow(row), float64(i))
		}
	}
	hammer(10)
	hammer(20)
	hammer(30) // wraps onto 10's quarantine slot
	// Row 10 must be back home (restored), row 30 in quarantine.
	if cur := a.TranslateRow(10); cur != 10 {
		t.Fatalf("evicted quarantine occupant at %d, want restored to 10", cur)
	}
	if cur := a.TranslateRow(30); cur == 30 {
		t.Fatal("row 30 should be quarantined")
	}
}

// hammerThroughMitigator drives a double-sided style hammering loop through
// a mitigator exactly as the memory controller would: every access is
// translated, and every resulting activation is fed back to the scheme.
func hammerThroughMitigator(d *dram.Module, m Mitigator, rows []uint64, accesses int) {
	now := 0.0
	for i := 0; i < accesses; i++ {
		logical := rows[i%len(rows)]
		cur := m.TranslateRow(logical)
		phys := cur << d.Geom.SlotBits()
		start := now
		if !d.WouldHit(phys) {
			start = m.ReleaseTime(cur, now)
		}
		res := d.Access(phys, start)
		now = res.Completion
		if res.Activated {
			m.OnACT(cur, res.ActStart)
		}
	}
}

func TestAQUASecurityUnderAttack(t *testing.T) {
	// Hammer two same-bank logical rows hard through the translation; no
	// physical row may exceed T_RH activations in the DRAM census.
	const trh = 128
	d := newDRAM(t, trh)
	a := NewAQUA(d, AQUAConfig{TRH: trh})
	rows := []uint64{5, 5 + uint64(d.Geom.BanksTotal())}
	hammerThroughMitigator(d, a, rows, 100000)
	s := d.Finalize()
	if v := s.TotalOverTRH(); v != 0 {
		t.Fatalf("AQUA watchdog violations: %d", v)
	}
	if a.Mitigations() == 0 {
		t.Fatal("attack triggered no migrations")
	}
}

// --- SRS ----------------------------------------------------------------------

func TestSRSSwapsAtThirdThreshold(t *testing.T) {
	d := newDRAM(t, 128)
	s := NewSRS(d, SRSConfig{TRH: 128, Seed: 3})
	row := uint64(99)
	for i := 0; i < 41; i++ {
		s.OnACT(row, float64(i))
	}
	if s.Mitigations() != 0 {
		t.Fatal("swapped before T_RH/3")
	}
	s.OnACT(row, 42)
	if s.Mitigations() != 1 {
		t.Fatalf("swaps = %d, want 1 at T_RH/3 = 42", s.Mitigations())
	}
	cur := s.TranslateRow(row)
	if cur == row {
		t.Fatal("aggressor not swapped")
	}
	// The displaced row's content is now at the aggressor's old location.
	if s.TranslateRow(cur) != row {
		t.Fatal("swap is not symmetric")
	}
}

func TestSRSChargesDRAM(t *testing.T) {
	d := newDRAM(t, 128)
	s := NewSRS(d, SRSConfig{TRH: 128, Seed: 5, SwapNs: 4000})
	for i := 0; i <= 42; i++ {
		s.OnACT(55, float64(i))
	}
	st := d.Stats()
	if st.ExtraActs != 3 {
		t.Fatalf("extra ACTs = %d, want 3 (X, Y, X)", st.ExtraActs)
	}
	if st.ExtraCAS != uint64(4*d.Geom.LinesPerRow()) {
		t.Fatalf("extra CAS = %d, want 4 rows' worth", st.ExtraCAS)
	}
}

func TestSRSSecurityUnderAttack(t *testing.T) {
	const trh = 128
	d := newDRAM(t, trh)
	s := NewSRS(d, SRSConfig{TRH: trh, Seed: 7})
	rows := []uint64{5, 5 + uint64(d.Geom.BanksTotal())}
	hammerThroughMitigator(d, s, rows, 100000)
	if v := d.Finalize().TotalOverTRH(); v != 0 {
		t.Fatalf("SRS watchdog violations: %d", v)
	}
	if s.Mitigations() == 0 {
		t.Fatal("attack triggered no swaps")
	}
}

func TestBlockHammerSecurityUnderAttack(t *testing.T) {
	const trh = 128
	d := newDRAM(t, trh)
	b := NewBlockHammer(d, BlockHammerConfig{TRH: trh})
	rows := []uint64{5, 5 + uint64(d.Geom.BanksTotal())}
	hammerThroughMitigator(d, b, rows, 20000)
	if v := d.Finalize().TotalOverTRH(); v != 0 {
		t.Fatalf("BlockHammer watchdog violations: %d", v)
	}
	if b.Mitigations() == 0 {
		t.Fatal("attack triggered no throttling")
	}
}

// --- BlockHammer ----------------------------------------------------------------

func TestBlockHammerThrottlesBlacklistedRows(t *testing.T) {
	d := newDRAM(t, 128)
	b := NewBlockHammer(d, BlockHammerConfig{TRH: 128})
	row := uint64(31)
	// Below the blacklist threshold: no delay.
	for i := 0; i < 63; i++ {
		b.OnACT(row, float64(i))
		if got := b.ReleaseTime(row, float64(i)); got != float64(i) {
			t.Fatalf("delayed before blacklist at ACT %d", i)
		}
	}
	b.OnACT(row, 63) // count reaches 64 = TRH/2
	r1 := b.ReleaseTime(row, 1000)
	if r1 != 1000 {
		t.Fatal("first throttled grant should start immediately")
	}
	r2 := b.ReleaseTime(row, 1001)
	min := d.Timing.RefreshWindow / float64(128-64)
	if r2-r1 < min-1 {
		t.Fatalf("grant spacing %.0f, want >= %.0f", r2-r1, min)
	}
	if b.Mitigations() == 0 {
		t.Fatal("throttles not counted")
	}
}

func TestBlockHammerGuarantee(t *testing.T) {
	// Sum of pre-blacklist and granted activations within a window can
	// never exceed T_RH.
	const trh = 128
	d := newDRAM(t, trh)
	b := NewBlockHammer(d, BlockHammerConfig{TRH: trh})
	row := uint64(8)
	now := 0.0
	granted := 0
	for i := 0; i < 10000; i++ {
		t0 := b.ReleaseTime(row, now)
		if t0 >= d.Timing.RefreshWindow {
			break // next grant falls outside the window
		}
		b.OnACT(row, t0)
		granted++
		now = t0 + 1
	}
	if granted > trh {
		t.Fatalf("BlockHammer granted %d ACTs in one window, TRH is %d", granted, trh)
	}
}

func TestBlockHammerWindowReset(t *testing.T) {
	d := newDRAM(t, 128)
	b := NewBlockHammer(d, BlockHammerConfig{TRH: 128})
	row := uint64(9)
	for i := 0; i < 100; i++ {
		b.OnACT(row, float64(i))
	}
	b.ResetWindow()
	if got := b.ReleaseTime(row, 5); got != 5 {
		t.Fatal("blacklist survived the window reset")
	}
}

// --- TRR ----------------------------------------------------------------------

func TestTRRRefreshesNeighbours(t *testing.T) {
	d := newDRAM(t, 1<<30) // watchdog off; we inspect raw counts
	trr := NewTRR(d, 128)
	row := uint64(1000 * 16) // aligned so neighbours exist
	for i := 0; i < 64; i++ {
		trr.OnACT(row, float64(i))
	}
	if trr.Mitigations() != 1 {
		t.Fatalf("victim refreshes = %d, want 1 at TRH/2", trr.Mitigations())
	}
	s := d.Finalize()
	// The two neighbour activations must appear in the census.
	if s.ExtraActs != 2 {
		t.Fatalf("neighbour refreshes = %d, want 2", s.ExtraActs)
	}
}

func TestTRRHalfDoubleEffect(t *testing.T) {
	// Half-Double: hammering row A drives TRR to activate A±1 often enough
	// that A±1 themselves exceed the threshold — the victim refreshes ARE
	// the distance-2 hammer. This is why TRR is not secure.
	const trh = 128
	d := dram.New(dram.Config{Geometry: geom.DDR4_16GB(), Timing: dram.DDR4_2400(), TRH: trh})
	trr := NewTRR(d, trh)
	stride := uint64(d.Geom.BanksTotal())
	a := uint64(5000) * stride
	// The attacker can activate A far more than TRH times because TRR
	// never blocks the aggressor, only refreshes victims.
	for i := 0; i < 100*trh; i++ {
		trr.OnACT(a, float64(i))
	}
	s := d.Finalize()
	// Neighbours got 100*trh/(trh/2) * ... activations — far over TRH.
	if v := s.TotalOverTRH(); v == 0 {
		t.Fatal("Half-Double should drive the neighbours over TRH under TRR")
	}
}

func TestMitigatorInterfaces(t *testing.T) {
	d := newDRAM(t, 128)
	ms := []Mitigator{
		NewNone(),
		NewAQUA(d, AQUAConfig{TRH: 128}),
		NewSRS(d, SRSConfig{TRH: 128}),
		NewBlockHammer(d, BlockHammerConfig{TRH: 128}),
		NewTRR(d, 128),
	}
	for _, m := range ms {
		m.ResetWindow() // must not panic on fresh state
		if m.TranslateRow(1) != 1 {
			t.Errorf("%s translates before any mitigation", m.Name())
		}
	}
}
