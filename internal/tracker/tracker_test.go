package tracker

import (
	"testing"

	"rubix/internal/rng"
)

func TestMisraGriesReportsAtThreshold(t *testing.T) {
	trk := NewMisraGries(4, 16)
	for i := 0; i < 3; i++ {
		if trk.RecordACT(7) {
			t.Fatalf("reported after %d activations, threshold is 4", i+1)
		}
	}
	if !trk.RecordACT(7) {
		t.Fatal("no report at threshold")
	}
	// Reporting resets the row's count.
	if trk.RecordACT(7) {
		t.Fatal("count should restart after a report")
	}
	if trk.Reports() != 1 {
		t.Fatalf("reports = %d, want 1", trk.Reports())
	}
}

func TestMisraGriesThresholdOne(t *testing.T) {
	trk := NewMisraGries(1, 4)
	if !trk.RecordACT(5) {
		t.Fatal("threshold 1 must report on first activation")
	}
}

func TestMisraGriesGuarantee(t *testing.T) {
	// The heavy-hitters guarantee: with capacity c, a row receiving more
	// than total/c activations cannot evade detection. Hammer one row amid
	// noise from many others and verify detection.
	const threshold = 64
	const capacity = 128
	trk := NewMisraGries(threshold, capacity)
	r := rng.NewXoshiro256(1)
	reported := false
	// Interleave: 1 aggressor ACT per 32 noise ACTs; noise spread over 10K
	// rows. Aggressor performs 3*threshold ACTs total.
	for i := 0; i < 3*threshold; i++ {
		if trk.RecordACT(424242) {
			reported = true
		}
		for j := 0; j < 32; j++ {
			trk.RecordACT(r.Uint64n(10000))
		}
	}
	if !reported {
		t.Fatal("Misra-Gries missed an aggressor with 3x threshold activations")
	}
}

func TestMisraGriesCapacityBounded(t *testing.T) {
	trk := NewMisraGries(1000, 8)
	r := rng.NewXoshiro256(2)
	for i := 0; i < 100000; i++ {
		trk.RecordACT(r.Uint64n(1 << 20))
		if trk.Entries() > 8 {
			t.Fatalf("entries = %d exceeds capacity 8", trk.Entries())
		}
	}
}

func TestMisraGriesReset(t *testing.T) {
	trk := NewMisraGries(4, 16)
	trk.RecordACT(1)
	trk.RecordACT(1)
	trk.RecordACT(1)
	trk.Reset()
	for i := 0; i < 3; i++ {
		if trk.RecordACT(1) {
			t.Fatal("count survived Reset")
		}
	}
}

func TestMisraGriesDecrementEviction(t *testing.T) {
	// Fill the table, then hammer new rows; old single-count entries must
	// decay away so the table keeps tracking.
	trk := NewMisraGries(100, 4)
	for row := uint64(0); row < 4; row++ {
		trk.RecordACT(row)
	}
	if trk.Entries() != 4 {
		t.Fatalf("entries = %d, want 4", trk.Entries())
	}
	// A burst of distinct rows decrements everyone to the floor.
	for row := uint64(100); row < 108; row++ {
		trk.RecordACT(row)
	}
	if trk.Entries() >= 4 {
		t.Fatalf("stale entries (%d) not evicted by decrement-all", trk.Entries())
	}
}

func TestPerRowExact(t *testing.T) {
	trk := NewPerRow(3)
	if trk.RecordACT(42) || trk.RecordACT(42) {
		t.Fatal("reported before threshold")
	}
	if trk.Count(42) != 2 {
		t.Fatalf("count = %d, want 2", trk.Count(42))
	}
	if !trk.RecordACT(42) {
		t.Fatal("no report at threshold 3")
	}
	if trk.Count(42) != 0 {
		t.Fatal("count should reset after report")
	}
	if trk.Count(43) != 0 {
		t.Fatal("untouched row should count 0")
	}
}

func TestPerRowResetIsO1AndComplete(t *testing.T) {
	trk := NewPerRow(1000)
	for row := uint64(0); row < 1000; row++ {
		trk.RecordACT(row)
		trk.RecordACT(row)
	}
	trk.Reset()
	for row := uint64(0); row < 1000; row++ {
		if trk.Count(row) != 0 {
			t.Fatalf("row %d count survived Reset", row)
		}
	}
	// Epoch stamping: counts work again after reset.
	trk.RecordACT(5)
	if trk.Count(5) != 1 {
		t.Fatal("count broken after Reset")
	}
}

func TestPerRowIndependentRows(t *testing.T) {
	trk := NewPerRow(10)
	for i := 0; i < 9; i++ {
		trk.RecordACT(1)
	}
	trk.RecordACT(2)
	if trk.Count(1) != 9 || trk.Count(2) != 1 {
		t.Fatalf("cross-row interference: %d, %d", trk.Count(1), trk.Count(2))
	}
}

// densePerRow is the retired dense-array PerRow, kept as the differential
// oracle for the open-addressed table: one stamped counter per row, exact
// by construction.
type densePerRow struct {
	threshold uint32
	epoch     uint32
	stamped   []uint32
	counts    []uint32
}

func newDensePerRow(threshold int, totalRows uint64) *densePerRow {
	return &densePerRow{
		threshold: uint32(threshold),
		epoch:     1,
		stamped:   make([]uint32, totalRows),
		counts:    make([]uint32, totalRows),
	}
}

func (t *densePerRow) recordACT(row uint64) bool {
	if t.stamped[row] != t.epoch {
		t.stamped[row] = t.epoch
		t.counts[row] = 0
	}
	t.counts[row]++
	if t.counts[row] >= t.threshold {
		t.counts[row] = 0
		return true
	}
	return false
}

func (t *densePerRow) count(row uint64) uint32 {
	if t.stamped[row] != t.epoch {
		return 0
	}
	return t.counts[row]
}

func (t *densePerRow) reset() { t.epoch++ }

// TestPerRowDifferentialVsDense drives the flat table and the dense oracle
// with an identical skewed stream — enough distinct rows to force several
// table growths — and demands identical reports, counts, and window-reset
// behavior.
func TestPerRowDifferentialVsDense(t *testing.T) {
	const totalRows = 1 << 16
	flat := NewPerRow(5)
	dense := newDensePerRow(5, totalRows)
	r := rng.NewXoshiro256(99)
	for win := 0; win < 4; win++ {
		for i := 0; i < 60_000; i++ {
			var row uint64
			if i%3 == 0 {
				row = r.Uint64n(64) // hot set: drives threshold reports
			} else {
				row = r.Uint64n(totalRows)
			}
			if got, want := flat.RecordACT(row), dense.recordACT(row); got != want {
				t.Fatalf("win %d event %d row %d: flat reported %v, dense %v", win, i, row, got, want)
			}
			if i%97 == 0 {
				probe := r.Uint64n(totalRows)
				if got, want := flat.Count(probe), dense.count(probe); got != want {
					t.Fatalf("win %d event %d: Count(%d) = %d, dense %d", win, i, probe, got, want)
				}
			}
		}
		flat.Reset()
		dense.reset()
	}
}

// TestPerRowGrowthPreservesCounts fills past several load-factor doublings
// within one window and checks every count survived the rehashes.
func TestPerRowGrowthPreservesCounts(t *testing.T) {
	trk := NewPerRow(1 << 30)
	const n = 10_000 // >> trackerInitSlots
	for row := uint64(0); row < n; row++ {
		for k := uint64(0); k <= row%3; k++ {
			trk.RecordACT(row)
		}
	}
	for row := uint64(0); row < n; row++ {
		if got, want := trk.Count(row), uint32(row%3+1); got != want {
			t.Fatalf("row %d count = %d, want %d", row, got, want)
		}
	}
}

func TestPerRowSteadyStateAllocFree(t *testing.T) {
	trk := NewPerRow(1 << 30)
	for row := uint64(0); row < 4096; row++ {
		trk.RecordACT(row)
	}
	row := uint64(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		trk.RecordACT(row & 4095)
		row++
	}); allocs != 0 {
		t.Fatalf("RecordACT allocates %.1f objects per call on warmed table, want 0", allocs)
	}
}

func TestTrackerInterfaceCompliance(t *testing.T) {
	for _, trk := range []Tracker{NewMisraGries(4, 4), NewPerRow(4)} {
		if trk.Name() == "" {
			t.Error("empty tracker name")
		}
		trk.RecordACT(0)
		trk.Reset()
	}
}
