package rubix_test

// Full-pipeline integration test: a synthetic address stream driven through
// the LLC model into the memory controller and DRAM, validating that the
// miss-trace abstraction the main experiments use (generators emitting LLC
// misses directly) is consistent with an explicit cache in the loop.

import (
	"testing"

	"rubix/internal/cache"
	"rubix/internal/dram"
	"rubix/internal/geom"
	"rubix/internal/memctrl"
	"rubix/internal/mitigation"
	"rubix/internal/rng"
	"rubix/internal/sim"
)

// buildPipeline returns an LLC plus a controller on the named mapping.
func buildPipeline(t *testing.T, mapName string) (*cache.Cache, *memctrl.Controller, *dram.Module) {
	t.Helper()
	g := geom.DDR4_16GB()
	llc, err := cache.New(8<<20, 64, 16) // Table 1's 8 MB / 16-way LLC
	if err != nil {
		t.Fatal(err)
	}
	mod := dram.New(dram.Config{Geometry: g, Timing: dram.DDR4_2400(), TRH: 128})
	mapper, err := sim.MapperFor(mapName, g, 42)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := memctrl.New(memctrl.Config{DRAM: mod, Map: mapper, Mit: mitigation.NewNone()})
	return llc, ctrl, mod
}

// access drains one miss through the controller.
func access(ctrl *memctrl.Controller, line uint64, now float64) float64 {
	return ctrl.AccessBatch([]uint64{line}, now)
}

func TestPipelineCacheFiltersMemoryTraffic(t *testing.T) {
	llc, ctrl, mod := buildPipeline(t, "coffeelake")
	r := rng.NewXoshiro256(1)
	now := 0.0
	const accesses = 400_000
	const workingLines = 32_768 // 2 MB working set: fits the LLC
	for i := 0; i < accesses; i++ {
		line := r.Uint64n(workingLines)
		res := llc.Access(line, i%4 == 0)
		if !res.Hit {
			now = access(ctrl, line, now)
		}
		if res.Writeback {
			now = access(ctrl, res.Victim, now)
		}
	}
	s := mod.Finalize()
	// A cache-resident working set must filter nearly all traffic.
	if s.Accesses > accesses/5 {
		t.Fatalf("LLC passed %d of %d accesses to memory", s.Accesses, accesses)
	}
	if llc.MissRate() > 0.2 {
		t.Fatalf("LLC miss rate %.2f for a resident working set", llc.MissRate())
	}
}

func TestPipelineThrashingReachesMemory(t *testing.T) {
	llc, ctrl, mod := buildPipeline(t, "coffeelake")
	r := rng.NewXoshiro256(2)
	now := 0.0
	const accesses = 300_000
	const workingLines = 4 << 20 / 8 // 32 MB working set: 4x the LLC
	for i := 0; i < accesses; i++ {
		line := r.Uint64n(workingLines)
		if !llc.Access(line, false).Hit {
			now = access(ctrl, line, now)
		}
	}
	s := mod.Finalize()
	if s.Accesses < accesses/2 {
		t.Fatalf("thrashing working set produced only %d memory accesses", s.Accesses)
	}
}

// TestPipelineBatchDrainMatchesScalar runs the same miss stream through two
// identically-seeded pipelines, draining one miss at a time on one side and
// in AccessBatch chunks on the other: the end-to-end DRAM statistics must be
// identical. Covers a static mapping and Rubix-D, whose remap engine runs
// inside the drain.
func TestPipelineBatchDrainMatchesScalar(t *testing.T) {
	for _, mapName := range []string{"coffeelake", "rubixd-gs4"} {
		t.Run(mapName, func(t *testing.T) {
			llcA, ctrlA, modA := buildPipeline(t, mapName)
			llcB, ctrlB, modB := buildPipeline(t, mapName)
			rA := rng.NewXoshiro256(7)
			rB := rng.NewXoshiro256(7)
			const accesses = 200_000
			const workingLines = 4 << 20 / 8
			const chunk = 8
			nowA, nowB := 0.0, 0.0
			var batchA, batchB []uint64
			// Both sides issue each chunk's misses at one common arrival
			// time (a burst); only the drain mechanism differs: one
			// single-line AccessBatch per miss vs one call per chunk.
			flush := func() {
				if len(batchA) == 0 {
					return
				}
				maxA := nowA
				for _, line := range batchA {
					if comp := access(ctrlA, line, nowA); comp > maxA {
						maxA = comp
					}
				}
				nowA = maxA
				nowB = ctrlB.AccessBatch(batchB, nowB)
				if nowA != nowB {
					t.Fatalf("burst completion diverged: scalar %.4f, batch %.4f", nowA, nowB)
				}
				batchA, batchB = batchA[:0], batchB[:0]
			}
			for i := 0; i < accesses; i++ {
				lineA := rA.Uint64n(workingLines)
				if !llcA.Access(lineA, false).Hit {
					batchA = append(batchA, lineA)
				}
				lineB := rB.Uint64n(workingLines)
				if !llcB.Access(lineB, false).Hit {
					batchB = append(batchB, lineB)
				}
				if len(batchA) == chunk {
					flush()
				}
			}
			flush()
			sA, sB := modA.Finalize(), modB.Finalize()
			if sA.Accesses != sB.Accesses || sA.RowHits != sB.RowHits ||
				sA.DemandActs != sB.DemandActs || sA.ExtraActs != sB.ExtraActs {
				t.Fatalf("batch drain diverged from scalar:\nscalar %+v\nbatch  %+v", sA, sB)
			}
			if ctrlA.RemapSwaps() != ctrlB.RemapSwaps() {
				t.Fatalf("swaps diverged: scalar %d, batch %d",
					ctrlA.RemapSwaps(), ctrlB.RemapSwaps())
			}
		})
	}
}

func TestPipelineHotPageThroughCacheStillMakesHotRow(t *testing.T) {
	// The paper's effect survives an explicit cache: a working set larger
	// than the LLC with a reuse-heavy hot region produces hot DRAM rows
	// under Coffee Lake but not under Rubix. Line-granular conflict misses
	// of the hot page recur because the surrounding traffic evicts them.
	for _, tc := range []struct {
		mapName string
		wantHot bool
	}{
		{"coffeelake", true},
		{"rubixs-gs1", false},
	} {
		llc, ctrl, mod := buildPipeline(t, tc.mapName)
		r := rng.NewXoshiro256(3)
		now := 0.0
		const big = 4 << 20 / 8 // 32 MB background set
		// One 4 KB-page-pair region (128 lines = one CL row).
		for i := 0; i < 1_500_000; i++ {
			var line uint64
			if i%4 == 0 {
				line = uint64(big) + r.Uint64n(128) // hot row region
			} else {
				line = r.Uint64n(big)
			}
			if !llc.Access(line, false).Hit {
				now = access(ctrl, line, now)
			}
		}
		s := mod.Finalize()
		hot := s.TotalHot64()
		if tc.wantHot && hot == 0 {
			t.Errorf("%s: expected a hot row from the reused page", tc.mapName)
		}
		if !tc.wantHot && hot > 0 {
			t.Errorf("%s: expected no hot rows, got %d", tc.mapName, hot)
		}
	}
}
