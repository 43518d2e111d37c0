// Row census: per-row activation accounting inside one refresh window.
//
// Every activation touches the census, so it lives in a rowtable table: a
// Table[uint32] of activation counts, or under Config.LineCensus a
// Table[lineRow] whose slots add the Table 3 activating-line bitmap (32
// bytes per row instead of 16, and still one probe per ACT). A window roll
// is an O(1) epoch bump, and a steady-state run allocates nothing on the
// ACT path. Every window aggregate is order-independent, so
// finalizeWindow's table walk needs no ordering.
package dram

import (
	"math/bits"

	"rubix/internal/metrics"
)

// lineRow is a line-census row: its activation count, then the 128-bit
// bitmap of the lines whose demand accesses activated it. uint32 words keep
// the slot at 32 bytes.
type lineRow [5]uint32

// censusInitSlots is the initial census table size: small enough that short
// runs and per-test modules stay cheap, large enough that realistic
// workloads reach steady state within a few doublings.
const censusInitSlots = 1 << 8

// recordACT updates window accounting. slot < 0 means "line unknown"
// (mitigation traffic), which skips the line census.
func (m *Module) recordACT(row uint64, slot int, at float64, demand bool) {
	if demand {
		m.stats.DemandActs++
		m.mActDemand.Inc()
		m.rec.Event(metrics.EvActivation, at, row)
	}
	for at >= m.windowEnd {
		m.rollWindow()
	}
	if !m.lineCensus {
		*m.acts.Get(row)++
	} else {
		lr := m.lines.Get(row)
		lr[0]++
		if slot >= 0 {
			lr[1+slot>>5] |= 1 << (uint(slot) & 31)
		}
	}
	// Placed after the window roll so that, at every window close, the
	// cumulative offered counts equal the cumulative table sums exactly.
	if m.chk != nil {
		m.chk.OnCensusACT(demand)
	}
}

// rollWindow finalizes the current refresh window and starts the next.
func (m *Module) rollWindow() {
	m.finalizeWindow()
	m.stats.currentStart = m.windowEnd
	m.windowEnd += m.Timing.RefreshWindow
}

// finalizeWindow closes the current refresh window into the stats record.
//
// cold: runs once per refresh window (milliseconds of simulated time), not
// per access; the per-window stats append is the intended record.
func (m *Module) finalizeWindow() {
	w := WindowStats{Start: m.stats.currentStart}
	var tableActs uint64
	tally := func(n uint32, lines int) {
		tableActs += uint64(n)
		w.MaxActs = max(w.MaxActs, n)
		if n >= 64 {
			w.Hot64++
			if m.lineCensus {
				w.LineSum += lines
				switch {
				case lines <= 32:
					w.LineBuckets[0]++
				case lines <= 64:
					w.LineBuckets[1]++
				default:
					w.LineBuckets[2]++
				}
			}
		}
		if n >= 512 {
			w.Hot512++
		}
		if m.trh > 0 && n > uint32(m.trh) {
			w.OverTRH++
		}
	}
	if !m.lineCensus {
		w.UniqueRows = m.acts.Len()
		m.acts.Each(func(_ uint64, n *uint32) { tally(*n, 0) })
		m.acts.Reset()
	} else {
		w.UniqueRows = m.lines.Len()
		m.lines.Each(func(_ uint64, lr *lineRow) {
			tally(lr[0], bits.OnesCount32(lr[1])+bits.OnesCount32(lr[2])+bits.OnesCount32(lr[3])+bits.OnesCount32(lr[4]))
		})
		m.lines.Reset()
	}
	if m.chk != nil {
		m.chk.OnWindowClose(tableActs)
	}
	if w.UniqueRows > 0 || len(m.stats.Windows) == 0 {
		m.stats.Windows = append(m.stats.Windows, w)
	}
}
