package sim

import (
	"math"
	"testing"

	"rubix/internal/geom"
)

// TestMultiChannelGolden pins the latency decomposition and the headline
// floats of multi-channel runs bit for bit. dram.Module folds its
// per-channel float accumulators in ascending channel order; floating-point
// addition is not associative, so any other fold order (one global
// accumulator, say) moves these values in the last bits. The Rubix-D spec
// makes the controller charge gang swaps, which block channels and so feed
// WaitLeaseNs. The constants were generated while the channel-sharded run
// path still existed, whose serial and sharded loops agreed on them bit for
// bit; perfbench's golden digests pin the benchmark's specs the same way.
func TestMultiChannelGolden(t *testing.T) {
	cases := []struct {
		name     string
		geo      geom.Geometry
		workload string
		mapping  string
		mit      string
		// Float64bits of WaitBankNs, WaitLeaseNs, PrepNs, WaitBusNs,
		// ElapsedNs, MeanIPC.
		want [6]uint64
	}{
		{"2ch/rubixd-gs2-blockhammer", geom.DDR4_32GB2Ch(), "mix1", "rubixd-gs2", "blockhammer",
			[6]uint64{0x4113ce5444444c6e, 0x40d357622222237e, 0x411350a2aaaaaf5d, 0x4134fef866666ad6, 0x411465cb77777a0f, 0x3ffcb9c842c7910d}},
		{"4ch/rubixd-gs2-none", geom.DDR4_32GB4Ch(), "mcf", "rubixd-gs2", "none",
			[6]uint64{0x4118792444444e08, 0x40f045788888880f, 0x412b9af9bbbbc572, 0x4120dfcf77777824, 0x4111c9d6aaaaaeac, 0x3ff2a71f72d875b1}},
		{"4ch/coffeelake-trr", geom.DDR4_32GB4Ch(), "mix2", "coffeelake", "trr",
			[6]uint64{0x411b8cca66667da7, 0x40b1c14444444bb7, 0x4105386333333c44, 0x4140aa5222222332, 0x41126a1888888968, 0x3ffc036a2211a3c0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			profiles, err := ResolveWorkload(tc.workload, 8, tc.geo, 11)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(Config{
				Geometry:       tc.geo,
				TRH:            128,
				MappingName:    tc.mapping,
				MitigationName: tc.mit,
				Workloads:      profiles,
				InstrPerCore:   1_000_000,
				Seed:           11,
			})
			if err != nil {
				t.Fatal(err)
			}
			d := res.DRAM
			got := [6]uint64{
				math.Float64bits(d.WaitBankNs), math.Float64bits(d.WaitLeaseNs),
				math.Float64bits(d.PrepNs), math.Float64bits(d.WaitBusNs),
				math.Float64bits(res.ElapsedNs), math.Float64bits(res.MeanIPC),
			}
			if got != tc.want {
				t.Errorf("floats moved (bits %#x), want %#x", got, tc.want)
			}
			if tc.mapping == "rubixd-gs2" && res.RemapSwaps == 0 {
				t.Error("Rubix-D run charged no gang swaps")
			}
		})
	}
}
