package tracker

import (
	"testing"

	"rubix/internal/rng"
)

// mapMisraGries is the retired map-backed MisraGries, kept as the
// differential oracle for the rowtable-backed tracker.
type mapMisraGries struct {
	threshold uint32
	capacity  int
	floor     uint32
	counts    map[uint64]uint32 // stored as true count; entry live iff count > floor
	evictions int
}

func newMapMisraGries(threshold, capacity int) *mapMisraGries {
	return &mapMisraGries{threshold: uint32(threshold), capacity: capacity, counts: make(map[uint64]uint32)}
}

func (t *mapMisraGries) recordACT(row uint64) bool {
	if c, ok := t.counts[row]; ok {
		c++
		if c-t.floor >= t.threshold {
			delete(t.counts, row)
			return true
		}
		t.counts[row] = c
		return false
	}
	if len(t.counts) < t.capacity {
		t.counts[row] = t.floor + 1
		if 1 >= t.threshold {
			delete(t.counts, row)
			return true
		}
		return false
	}
	t.floor++
	//lint:allow determinism test oracle: every entry at or below the floor is deleted, whatever order the map yields them
	for r, c := range t.counts {
		if c <= t.floor {
			delete(t.counts, r)
			t.evictions++
		}
	}
	return false
}

func (t *mapMisraGries) reset() {
	t.floor = 0
	clear(t.counts)
}

// TestMisraGriesDifferentialVsMap drives the table-backed tracker and the
// map oracle with identical seeded ACT streams — small capacities so the
// decrement-all step and its evictions run constantly, a hot set so
// reports fire, window resets in between — and demands identical reports,
// entry counts, floors and per-row state.
func TestMisraGriesDifferentialVsMap(t *testing.T) {
	for _, tc := range []struct{ threshold, capacity int }{{1, 8}, {4, 16}, {21, 64}, {64, 1 << 12}} {
		trk := NewMisraGries(tc.threshold, tc.capacity)
		ref := newMapMisraGries(tc.threshold, tc.capacity)
		r := rng.NewXoshiro256(uint64(tc.capacity))
		for win := 0; win < 3; win++ {
			for i := 0; i < 40_000; i++ {
				row := r.Uint64n(1 << 20)
				if i%2 == 0 {
					row = r.Uint64n(32) // hot set
				}
				got, want := trk.RecordACT(row), ref.recordACT(row)
				if got != want || trk.Entries() != len(ref.counts) || trk.floor != ref.floor {
					t.Fatalf("%+v win %d event %d row %d: report %v/%v entries %d/%d floor %d/%d",
						tc, win, i, row, got, want, trk.Entries(), len(ref.counts), trk.floor, ref.floor)
				}
			}
			n := 0
			trk.counts.Each(func(row uint64, c *uint32) {
				n++
				if want, ok := ref.counts[row]; !ok || *c != want {
					t.Fatalf("%+v win %d: row %d = %d, oracle %d (present %v)", tc, win, row, *c, want, ok)
				}
			})
			if n != len(ref.counts) {
				t.Fatalf("%+v win %d: %d entries, oracle %d", tc, win, n, len(ref.counts))
			}
			trk.Reset()
			ref.reset()
		}
		if tc.threshold > 1 && tc.capacity < 1<<12 && ref.evictions == 0 {
			t.Fatalf("%+v: the stream never reached the decrement-all step", tc)
		}
	}
}
