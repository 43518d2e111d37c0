// Package rowtable is the simulator's one per-row bookkeeping structure: an
// open-addressed hash table of inline values keyed by global row. The DRAM
// census (activation counts and Table 3 line bitmaps), the activation
// trackers (PerRow, MisraGries, Hydra) and the mitigations' row state
// (AQUA/SRS relocations, BlockHammer grants) all keep their per-row data in
// a Table.
//
// Every slot is stamped with the epoch that claimed it, and a slot whose
// stamp differs from the table's current epoch is free. Reset therefore
// frees every entry at once by bumping the epoch, touching no slot memory:
// a refresh-window roll is O(1) and a steady-state run performs no
// allocations (the table grows by doubling toward its peak population and
// then stays put). Lookups use Fibonacci hashing, which spreads the
// structured global-row space (bank bits in the low positions), with linear
// probing, so chains stay within adjacent cache lines: a Table[uint32] slot
// is 16 bytes.
//
// Each walks the slots linearly. The order is not insertion order, but it
// is a pure function of the operation history, so walks are deterministic
// without map-ordering caveats.
package rowtable

// fib is 2^64 divided by the golden ratio: multiplying by it and keeping
// the top bits is Fibonacci hashing.
const fib = 0x9E3779B97F4A7C15

// slot is one table entry. epoch == 0 never matches a live table epoch,
// so a zeroed or deleted slot is free in every epoch.
type slot[V any] struct {
	row   uint64 // addr: row
	epoch uint32
	val   V
}

// Table maps global rows to inline values of type V. A row absent from the
// current epoch reads as the zero V. Users embed a Table by value, built by
// New; it must not be copied after first use, and it is not safe for
// concurrent use.
type Table[V any] struct {
	slots []slot[V]
	mask  uint64 // len(slots)-1; len is always a power of two
	shift uint   // 64 - log2(len(slots)), for Fibonacci hashing
	live  int    // slots claimed in the current epoch
	epoch uint32 // current stamp; slots with a different stamp are free
}

// New returns an empty table with room for size slots, rounded up to a
// power of two (at least 2). Size it for the common population: growth
// is geometric, so an undersized table costs a few doublings once.
func New[V any](size int) Table[V] {
	n := 2
	for n < size {
		n *= 2
	}
	t := Table[V]{epoch: 1}
	t.alloc(n)
	return t
}

// alloc installs a fresh slot array of n (a power of two) slots.
func (t *Table[V]) alloc(n int) {
	t.slots = make([]slot[V], n)
	t.mask = uint64(n - 1)
	t.shift = 64
	for ; n > 1; n >>= 1 {
		t.shift--
	}
}

// home is row's preferred slot.
func (t *Table[V]) home(row uint64) uint64 { return (row * fib) >> t.shift }

// Get returns row's value, claiming a slot holding the zero V on the
// row's first touch in the current epoch. The pointer is valid until the
// next Get, Delete or Reset.
//
// hot: the per-activation lookup of the census and the trackers; growth
// is amortized into grow.
func (t *Table[V]) Get(row uint64) *V {
	if (t.live+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	i := t.home(row)
	for {
		s := &t.slots[i]
		if s.epoch != t.epoch { // free: never used, stale, or deleted
			*s = slot[V]{row: row, epoch: t.epoch}
			t.live++
			return &s.val
		}
		if s.row == row {
			return &s.val
		}
		i = (i + 1) & t.mask
	}
}

// Find returns row's value, or nil if row has no slot in the current
// epoch. It never claims a slot. The pointer is valid until the next Get,
// Delete or Reset.
func (t *Table[V]) Find(row uint64) *V {
	i := t.home(row)
	for {
		s := &t.slots[i]
		if s.epoch != t.epoch {
			return nil
		}
		if s.row == row {
			return &s.val
		}
		i = (i + 1) & t.mask
	}
}

// Delete removes row from the current epoch, if present. Backward-shift
// deletion moves later entries of the probe chain into the hole, so no
// tombstones accumulate and every chain stays gap-free; the slot finally
// freed gets stamp 0.
func (t *Table[V]) Delete(row uint64) {
	i := t.home(row)
	for {
		s := &t.slots[i]
		if s.epoch != t.epoch {
			return
		}
		if s.row == row {
			break
		}
		i = (i + 1) & t.mask
	}
	for j := (i + 1) & t.mask; t.slots[j].epoch == t.epoch; j = (j + 1) & t.mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically within (i, j].
		if (j-t.home(t.slots[j].row))&t.mask >= (j-i)&t.mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = slot[V]{}
	t.live--
}

// Reset empties the table in O(1): bumping the epoch frees every slot.
func (t *Table[V]) Reset() {
	t.live = 0
	t.epoch++
	if t.epoch == 0 {
		// The 32-bit stamp wrapped (after ~4 billion resets). Scrub the
		// slots so stale stamps cannot alias the restarted epochs.
		clear(t.slots)
		t.epoch = 1
	}
}

// Len reports the number of rows in the current epoch.
func (t *Table[V]) Len() int { return t.live }

// Each calls fn for every row in the current epoch, in slot order. fn may
// Delete the row it is visiting and no other; any other mutation of t
// during the walk is undefined. The walk starts just past a free slot, and
// no probe chain spans a free slot, so a deletion only shifts entries the
// walk has not reached yet; re-examining the visited slot picks up
// whatever moved into it.
func (t *Table[V]) Each(fn func(row uint64, v *V)) {
	start := uint64(0)
	for t.slots[start].epoch == t.epoch { // the load factor keeps a slot free
		start++
	}
	for k := uint64(1); k <= t.mask; k++ {
		s := &t.slots[(start+k)&t.mask]
		for s.epoch == t.epoch {
			row := s.row
			fn(row, &s.val)
			if s.epoch == t.epoch && s.row == row {
				break
			}
		}
	}
}

// grow doubles the table and reinserts the current epoch's entries.
//
// cold: geometric growth amortizes to zero allocations per lookup once the
// table covers its peak population.
func (t *Table[V]) grow() {
	old := t.slots
	t.alloc(2 * len(old))
	for oi := range old {
		s := &old[oi]
		if s.epoch != t.epoch {
			continue
		}
		i := t.home(s.row)
		for t.slots[i].epoch == t.epoch {
			i = (i + 1) & t.mask
		}
		t.slots[i] = *s
	}
}
