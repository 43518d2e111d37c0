package mitigation

import (
	"testing"

	"rubix/internal/rng"
)

// mapIndirection is the retired map-backed indirection, kept as the
// differential oracle for the rowtable-backed one.
type mapIndirection struct {
	fwd map[uint64]uint64
	rev map[uint64]uint64
}

func newMapIndirection() *mapIndirection {
	return &mapIndirection{fwd: make(map[uint64]uint64), rev: make(map[uint64]uint64)}
}

func (in *mapIndirection) current(orig uint64) uint64 {
	if c, ok := in.fwd[orig]; ok {
		return c
	}
	return orig
}

func (in *mapIndirection) original(cur uint64) uint64 {
	if o, ok := in.rev[cur]; ok {
		return o
	}
	return cur
}

func (in *mapIndirection) relocate(cur, dst uint64) {
	orig := in.original(cur)
	delete(in.rev, cur)
	if orig == dst {
		delete(in.fwd, orig)
	} else {
		in.fwd[orig] = dst
		in.rev[dst] = orig
	}
}

func (in *mapIndirection) set(orig, cur uint64) {
	if orig == cur {
		delete(in.fwd, orig)
	} else {
		in.fwd[orig] = cur
		in.rev[cur] = orig
	}
}

func (in *mapIndirection) swap(a, b uint64) {
	oa, ob := in.original(a), in.original(b)
	delete(in.rev, a)
	delete(in.rev, b)
	in.set(oa, b)
	in.set(ob, a)
}

// TestIndirectionDifferentialVsMap feeds the table-backed indirection and
// the map oracle the same seeded stream of AQUA-style relocations (into a
// small quarantine region, evicting its occupant home first) and SRS-style
// swaps over a narrow row space, so rows move repeatedly, return home and
// chain through several locations. Every probe must translate identically
// and the tables must hold exactly the oracle's entries.
func TestIndirectionDifferentialVsMap(t *testing.T) {
	const rows, quarBase, quarRows = 512, 480, 32
	in := newIndirection()
	ref := newMapIndirection()
	r := rng.NewXoshiro256(41)
	for i := 0; i < 200_000; i++ {
		row := r.Uint64n(quarBase)
		if i%2 == 0 {
			dst := quarBase + r.Uint64n(quarRows)
			if occupant := ref.original(dst); occupant != dst {
				in.relocate(dst, occupant)
				ref.relocate(dst, occupant)
			}
			cur := in.current(row)
			in.relocate(cur, dst)
			ref.relocate(ref.current(row), dst)
		} else {
			dst := r.Uint64n(rows)
			in.swap(row, dst)
			ref.swap(row, dst)
		}
		probe := r.Uint64n(rows)
		if in.current(probe) != ref.current(probe) || in.original(probe) != ref.original(probe) {
			t.Fatalf("op %d: row %d translates to %d/%d, oracle %d/%d", i, probe,
				in.current(probe), in.original(probe), ref.current(probe), ref.original(probe))
		}
		if in.fwd.Len() != len(ref.fwd) || in.rev.Len() != len(ref.rev) {
			t.Fatalf("op %d: %d/%d entries, oracle %d/%d", i, in.fwd.Len(), in.rev.Len(), len(ref.fwd), len(ref.rev))
		}
	}
	for row := uint64(0); row < rows; row++ {
		if in.current(row) != ref.current(row) || in.original(row) != ref.original(row) {
			t.Fatalf("final: row %d differs from the oracle", row)
		}
	}
	if len(ref.fwd) == 0 {
		t.Fatal("the stream left no relocation to compare")
	}
}
