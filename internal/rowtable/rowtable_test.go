package rowtable

import (
	"sort"
	"testing"

	"rubix/internal/rng"
)

// setEpoch moves t to epoch e, so a test can force the 32-bit wrap
// without four billion resets.
func (t *Table[V]) setEpoch(e uint32) { t.epoch = e }

// contents snapshots t through Each as a map.
func contents(t *Table[uint32]) map[uint64]uint32 {
	got := make(map[uint64]uint32, t.Len())
	t.Each(func(row uint64, v *uint32) {
		if _, dup := got[row]; dup {
			panic("Each visited a row twice")
		}
		got[row] = *v
	})
	return got
}

// rowsHomedAt returns n distinct rows whose home slot in t is h, so a test
// can build a probe chain at a chosen place.
func rowsHomedAt(t *Table[uint32], h uint64, n int) []uint64 {
	var rows []uint64
	for r := uint64(0); len(rows) < n; r++ {
		if t.home(r) == h {
			rows = append(rows, r)
		}
	}
	return rows
}

// TestResetOrphansEntries: a reset must free every entry without touching
// slot memory, and the stale values must be invisible to the next epoch.
func TestResetOrphansEntries(t *testing.T) {
	tb := New[[2]uint64](16)
	*tb.Get(42) = [2]uint64{^uint64(0), 3}
	*tb.Get(43) = [2]uint64{7}
	tb.Reset()
	if tb.Len() != 0 || tb.Find(42) != nil {
		t.Fatalf("entries survived the reset: Len %d", tb.Len())
	}
	if v := *tb.Get(42); v != ([2]uint64{}) {
		t.Fatalf("stale value leaked across the epoch reset: %v", v)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tb.Len())
	}
}

// TestEpochWrapScrubs forces the 32-bit epoch to wrap and checks the table
// is scrubbed rather than resurrecting ancient entries.
func TestEpochWrapScrubs(t *testing.T) {
	tb := New[uint32](16)
	*tb.Get(11) = 500
	tb.setEpoch(^uint32(0) - 1)
	// An ancient slot whose stamp would alias the post-wrap epoch 1.
	tb.slots[0] = slot[uint32]{row: 77, epoch: 1, val: 123}
	tb.Reset() // -> MaxUint32
	tb.Reset() // wraps -> scrub, epoch back to 1
	if tb.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", tb.epoch)
	}
	if tb.Len() != 0 || tb.Find(77) != nil || tb.Find(11) != nil {
		t.Fatalf("pre-wrap entries visible after the wrap (Len %d)", tb.Len())
	}
	if v := *tb.Get(77); v != 0 {
		t.Fatalf("pre-wrap entry resurrected with value %d", v)
	}
}

// TestWalkDeterministic: two tables fed the same history walk in the same
// order, which is what lets callers iterate without a map-ordering waiver.
func TestWalkDeterministic(t *testing.T) {
	walk := func() []uint64 {
		tb := New[uint32](256)
		r := rng.NewXoshiro256(5)
		for i := 0; i < 1024; i++ {
			row := r.Uint64n(1 << 30)
			*tb.Get(row)++
			if i%7 == 0 {
				tb.Delete(row)
			}
		}
		var rows []uint64
		tb.Each(func(row uint64, _ *uint32) { rows = append(rows, row) })
		return rows
	}
	a, b := walk(), walk()
	if len(a) != len(b) {
		t.Fatalf("walk lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("walk diverges at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestDeleteAcrossWrapAround builds a probe chain that runs off the end of
// the slot array into slot 0 and deletes its head: backward shift must
// carry the wrapped entries back over the boundary.
func TestDeleteAcrossWrapAround(t *testing.T) {
	tb := New[uint32](16)
	rows := rowsHomedAt(&tb, tb.mask, 3) // occupy slots mask, 0, 1
	for i, r := range rows {
		*tb.Get(r) = uint32(i + 1)
	}
	if tb.slots[0].row != rows[1] || tb.slots[1].row != rows[2] {
		t.Fatal("chain did not wrap around as constructed")
	}
	tb.Delete(rows[0])
	if tb.slots[tb.mask].row != rows[1] || tb.slots[0].row != rows[2] || tb.slots[1].epoch != 0 {
		t.Fatalf("backward shift did not cross the wrap: %+v", tb.slots)
	}
	for i, r := range rows[1:] {
		if v := tb.Find(r); v == nil || *v != uint32(i+2) {
			t.Fatalf("row %d lost after delete", r)
		}
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tb.Len())
	}
}

// TestEachDeleteVisitsEveryRow deletes every visited row from inside Each,
// across chains that wrap around the array: every row must be visited
// exactly once and the table must end empty.
func TestEachDeleteVisitsEveryRow(t *testing.T) {
	tb := New[uint32](64)
	want := map[uint64]bool{}
	for _, h := range []uint64{tb.mask - 1, tb.mask, 5} {
		for _, r := range rowsHomedAt(&tb, h, 4) {
			*tb.Get(r) = 1
			want[r] = true
		}
	}
	seen := map[uint64]int{}
	tb.Each(func(row uint64, _ *uint32) {
		seen[row]++
		tb.Delete(row)
	})
	if len(seen) != len(want) || tb.Len() != 0 {
		t.Fatalf("visited %d of %d rows, Len %d after", len(seen), len(want), tb.Len())
	}
	for r, n := range seen {
		if n != 1 || !want[r] {
			t.Fatalf("row %d visited %d times", r, n)
		}
	}
}

// TestSteadyStateAllocFree: once the table covers its population, Get,
// Find, Delete and Reset allocate nothing.
func TestSteadyStateAllocFree(t *testing.T) {
	tb := New[uint32](16)
	for r := uint64(0); r < 512; r++ {
		tb.Get(r)
	}
	tb.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		for r := uint64(0); r < 512; r++ {
			*tb.Get(r * 3)++
			tb.Find(r)
			if r%5 == 0 {
				tb.Delete(r * 3)
			}
		}
		tb.Reset()
	})
	if allocs != 0 {
		t.Fatalf("steady-state allocs/run = %v, want 0", allocs)
	}
}

// FuzzRowTable checks the table against a Go map over arbitrary sequences
// of Get, Find, Delete, Reset and Each (with and without deletion inside
// the walk). The tiny initial size and narrow row space force growth,
// long probe chains and chains that wrap around the slot array.
func FuzzRowTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 1, 2, 1, 4, 0})
	f.Add([]byte{0, 9, 0, 9, 0, 17, 2, 9, 4, 1, 3, 0, 1, 17})
	grow := make([]byte, 0, 512)
	for i := 0; i < 256; i++ {
		grow = append(grow, 0, byte(i*7))
	}
	f.Add(append(grow, 4, 1, 4, 0))
	f.Fuzz(func(t *testing.T, ops []byte) {
		tb := New[uint32](2)
		ref := map[uint64]uint32{}
		for i := 0; i+1 < len(ops); i += 2 {
			// Rows cluster in 96 values spread over the high bits, so the
			// top-bits hash still collides often.
			row := uint64(ops[i+1]%96) * 0x0101_0000_0001
			switch ops[i] % 6 {
			case 0, 5:
				*tb.Get(row)++
				ref[row]++
			case 1:
				v, ok := ref[row]
				if p := tb.Find(row); (p != nil) != ok || (ok && *p != v) {
					t.Fatalf("op %d: Find(%#x) = %v, map has %d,%v", i/2, row, p, v, ok)
				}
			case 2:
				tb.Delete(row)
				delete(ref, row)
			case 3:
				tb.Reset()
				clear(ref)
			case 4:
				// With an odd operand, delete the rows whose count shares bit 1
				// with the operand, from inside the walk.
				del := ops[i+1]&1 == 1
				n := len(ref)
				seen := map[uint64]bool{}
				tb.Each(func(r uint64, v *uint32) {
					if seen[r] {
						t.Fatalf("op %d: Each visited %#x twice", i/2, r)
					}
					seen[r] = true
					if ref[r] != *v {
						t.Fatalf("op %d: Each(%#x) = %d, map has %d", i/2, r, *v, ref[r])
					}
					if del && *v&2 == uint32(ops[i+1]&2) {
						tb.Delete(r)
						delete(ref, r)
					}
				})
				if len(seen) != n {
					t.Fatalf("op %d: Each visited %d rows, map had %d", i/2, len(seen), n)
				}
			}
			if tb.Len() != len(ref) {
				t.Fatalf("op %d: Len = %d, map has %d", i/2, tb.Len(), len(ref))
			}
		}
		got := contents(&tb)
		keys := make([]uint64, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		for _, k := range keys {
			if got[k] != ref[k] {
				t.Fatalf("final: row %#x = %d, map has %d", k, got[k], ref[k])
			}
		}
		if len(got) != len(ref) {
			t.Fatalf("final: table holds %d rows, map %d", len(got), len(ref))
		}
	})
}
