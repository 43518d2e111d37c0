package sim

import (
	"fmt"
	"testing"

	"rubix/internal/cpu"
	"rubix/internal/geom"
	"rubix/internal/workload"
)

// lineFunc issues one access and returns its completion time.
type lineFunc func(line uint64, arrival float64) float64

// serial adapts a lineFunc to the burst shape, issuing the burst's lines in
// order at the common arrival time.
func serial(f lineFunc) cpu.BatchAccessFunc {
	return func(lines []uint64, arrival float64) float64 {
		maxCompletion := arrival
		for _, line := range lines {
			maxCompletion = max(maxCompletion, f(line, arrival))
		}
		return maxCompletion
	}
}

// linearRunCores is the retired O(cores)-per-event scheduler, kept as the
// ordering oracle for the heap: always advance the first core holding the
// strictly smallest Now (ties resolve to the lowest index).
func linearRunCores(cores []*cpu.Core, access lineFunc) {
	for {
		var next *cpu.Core
		for _, c := range cores {
			if c.Done() {
				continue
			}
			if next == nil || c.Now < next.Now {
				next = c
			}
		}
		if next == nil {
			break
		}
		next.StepBatch(serial(access))
	}
}

// buildCores constructs n deterministic cores over disjoint footprints,
// fresh for each scheduler under test.
func buildCores(t *testing.T, n int, instr uint64) []*cpu.Core {
	t.Helper()
	g := geom.DDR4_16GB()
	profiles, err := ResolveWorkload("mcf", n, g, 42)
	if err != nil {
		t.Fatal(err)
	}
	cores := make([]*cpu.Core, n)
	for i, p := range profiles {
		cores[i] = cpu.New(i, cpu.DefaultConfig(), p, instr, 42+uint64(i)*7919+1)
	}
	return cores
}

// access is a deterministic stand-in for the memory controller with enough
// latency spread (a bank-conflict-like modulus) to interleave cores
// nontrivially.
func orderRecordingAccess(order *[]uint64) lineFunc {
	return func(line uint64, arrival float64) float64 {
		*order = append(*order, line)
		return arrival + 30 + float64(line%7)*12
	}
}

// TestHeapMatchesLinearScan: the heap scheduler must reproduce the linear
// scan's access stream event for event — same lines, same order — and
// leave every core in the identical final state, at 4, 16, and 64 cores.
func TestHeapMatchesLinearScan(t *testing.T) {
	for _, n := range []int{4, 16, 64} {
		t.Run(fmt.Sprintf("cores%d", n), func(t *testing.T) {
			const instr = 400_000
			var gotOrder, wantOrder []uint64
			heapCores := buildCores(t, n, instr)
			runCores(heapCores, serial(orderRecordingAccess(&gotOrder)))
			linCores := buildCores(t, n, instr)
			linearRunCores(linCores, orderRecordingAccess(&wantOrder))

			if len(gotOrder) != len(wantOrder) {
				t.Fatalf("event counts differ: heap %d vs linear %d", len(gotOrder), len(wantOrder))
			}
			for i := range gotOrder {
				if gotOrder[i] != wantOrder[i] {
					t.Fatalf("event %d differs: heap accessed line %d, linear %d",
						i, gotOrder[i], wantOrder[i])
				}
			}
			for i := range heapCores {
				if heapCores[i].Now != linCores[i].Now || heapCores[i].Retired != linCores[i].Retired {
					t.Fatalf("core %d final state differs: heap (Now %.2f, Retired %d) vs linear (Now %.2f, Retired %d)",
						i, heapCores[i].Now, heapCores[i].Retired, linCores[i].Now, linCores[i].Retired)
				}
			}
		})
	}
}

// TestHeapTieBreakOrder: cores deliberately forced onto identical
// timestamps must still be served in index order.
func TestHeapTieBreakOrder(t *testing.T) {
	g := geom.DDR4_16GB()
	profiles, err := ResolveWorkload("gcc", 8, g, 7)
	if err != nil {
		t.Fatal(err)
	}
	cores := make([]*cpu.Core, 8)
	for i, p := range profiles {
		// Identical seeds: every core generates the same gap sequence, so
		// timestamps collide constantly and the tie-break does the work.
		cores[i] = cpu.New(i, cpu.DefaultConfig(), p, 100_000, 12345)
	}
	var heapIDs, linIDs []uint64
	quarter := g.TotalLines() / 8
	idOf := func(line uint64) uint64 { return line / quarter }
	runCores(cores, serial(func(line uint64, arrival float64) float64 {
		heapIDs = append(heapIDs, idOf(line))
		return arrival + 40
	}))
	for i, p := range mustProfiles(t, "gcc", 8, g, 7) {
		cores[i] = cpu.New(i, cpu.DefaultConfig(), p, 100_000, 12345)
	}
	linearRunCores(cores, func(line uint64, arrival float64) float64 {
		linIDs = append(linIDs, idOf(line))
		return arrival + 40
	})
	if len(heapIDs) != len(linIDs) {
		t.Fatalf("event counts differ: %d vs %d", len(heapIDs), len(linIDs))
	}
	for i := range heapIDs {
		if heapIDs[i] != linIDs[i] {
			t.Fatalf("tie-break order diverged at event %d: heap core %d, linear core %d",
				i, heapIDs[i], linIDs[i])
		}
	}
}

func mustProfiles(t *testing.T, wl string, n int, g geom.Geometry, seed uint64) []workload.Profile {
	t.Helper()
	p, err := ResolveWorkload(wl, n, g, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
