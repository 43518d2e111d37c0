package sim

import (
	"bytes"
	"testing"

	"rubix/internal/geom"
)

// FuzzDecodeResult feeds arbitrary bytes to DecodeResult, the decoder the
// store tier and rubixd run on payloads read back from disk. It must never
// panic, and any payload it accepts must reach a fixed point after one
// re-encode: encoding, decoding and encoding again yields the same bytes,
// so a stored entry is served identically however often it round-trips.
//
//	go test ./internal/sim -run '^$' -fuzz FuzzDecodeResult -fuzztime 30s
func FuzzDecodeResult(f *testing.F) {
	g := geom.DDR4_16GB()
	profiles, err := ResolveWorkload("mcf", 2, g, 3)
	if err != nil {
		f.Fatal(err)
	}
	res, err := Run(Config{
		Geometry: g, TRH: 128, MappingName: "rubixs-gs1", MitigationName: "aqua",
		Workloads: profiles, InstrPerCore: 100_000, Seed: 3, LatencyHist: true,
	})
	if err != nil {
		f.Fatal(err)
	}
	seed, err := EncodeResult(res)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte(`{"IPC":[1],"DRAM":{}}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResult(data)
		if err != nil {
			return
		}
		first, err := EncodeResult(r)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		back, err := DecodeResult(first)
		if err != nil {
			t.Fatalf("re-encoded payload rejected: %v\n%s", err, first)
		}
		second, err := EncodeResult(back)
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encoding not stable:\nfirst:  %s\nsecond: %s", first, second)
		}
	})
}
