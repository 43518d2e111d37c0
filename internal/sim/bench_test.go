package sim

import (
	"fmt"
	"testing"

	"rubix/internal/cpu"
	"rubix/internal/geom"
)

// benchmarkRun measures one full system run end to end at a given core
// count — the scheduler benchmark the heap event loop is gated on. The
// 4/16/64 sweep shows the O(cores)→O(log cores) event-loop scaling.
func benchmarkRun(b *testing.B, cores int) {
	b.Helper()
	g := geom.DDR4_16GB()
	for i := 0; i < b.N; i++ {
		profiles, err := ResolveWorkload("gcc", cores, g, 42)
		if err != nil {
			b.Fatal(err)
		}
		_, err = Run(Config{
			Geometry:       g,
			TRH:            128,
			MappingName:    "coffeelake",
			MitigationName: "none",
			Workloads:      profiles,
			InstrPerCore:   2_000_000,
			Seed:           42,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunCores4(b *testing.B)  { benchmarkRun(b, 4) }
func BenchmarkRunCores16(b *testing.B) { benchmarkRun(b, 16) }
func BenchmarkRunCores64(b *testing.B) { benchmarkRun(b, 64) }

var benchSink float64

// BenchmarkSchedulerOnly isolates the event loop: cores with near-zero
// memory latency so Step cost is dominated by the scheduler pick.
func BenchmarkSchedulerOnly(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("cores%d", n), func(b *testing.B) {
			g := geom.DDR4_16GB()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				profiles, err := ResolveWorkload("gcc", n, g, 42)
				if err != nil {
					b.Fatal(err)
				}
				cs := make([]*cpu.Core, n)
				for j, p := range profiles {
					cs[j] = cpu.New(j, cpu.DefaultConfig(), p, 200_000, 42+uint64(j))
				}
				runCores(cs, serial(func(line uint64, arrival float64) float64 {
					benchSink = arrival
					return arrival + 30
				}))
			}
		})
	}
}
