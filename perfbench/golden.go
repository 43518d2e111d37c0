package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"

	"rubix/internal/sim"
)

// golden.json maps goldenKey -> digest for every spec in every workload's
// universe, as simulated at the commit that added the benchmark. Rewrite
// it with --write-golden only for a deliberate change of simulated results.
//
//go:embed golden.json
var goldenJSON []byte

type golden map[string]map[string]string // workload -> goldenKey -> digest

func loadGolden() (golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// digest hashes the simulated statistics of a Result: IPC, simulated time,
// the DRAM statistics, mitigation actions, Rubix-D swaps and power. It
// leaves out Result.Shards and Result.Metrics, which describe how the run
// was executed and observed rather than what it simulated.
func digest(r *sim.Result) string {
	var b strings.Builder
	f := func(v float64) { fmt.Fprintf(&b, "%x ", math.Float64bits(v)) }
	for _, v := range r.IPC {
		f(v)
	}
	f(r.MeanIPC)
	f(r.ElapsedNs)
	d := r.DRAM
	fmt.Fprintf(&b, "| %d %d %d %d %d %d ", d.Accesses, d.RowHits, d.WriteCAS, d.DemandActs, d.ExtraActs, d.ExtraCAS)
	f(d.WaitBankNs)
	f(d.WaitLeaseNs)
	f(d.PrepNs)
	f(d.WaitBusNs)
	for _, w := range d.Windows {
		fmt.Fprintf(&b, "| %x %d %d %d %d %d %v %d ", math.Float64bits(w.Start), w.UniqueRows, w.Hot64, w.Hot512, w.OverTRH, w.MaxActs, w.LineBuckets, w.LineSum)
	}
	fmt.Fprintf(&b, "| %d %d ", r.Mitigations, r.RemapSwaps)
	f(r.PowerMW)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

// secureMitigations are the schemes the watchdog must find airtight: no
// row may exceed the threshold within a refresh window.
var secureMitigations = map[string]bool{"aqua": true, "srs": true, "blockhammer": true}

// checkResult applies the correctness gate to one simulated spec: its
// digest must equal the committed one, and a secure mitigation must leave
// the watchdog at zero.
func checkResult(g golden, workload string, opts sim.Options, spec sim.RunSpec, r *sim.Result) error {
	want, ok := g[workload][goldenKey(opts, spec)]
	if !ok {
		return fmt.Errorf("%s: no golden digest", goldenKey(opts, spec))
	}
	if got := digest(r); got != want {
		return fmt.Errorf("%s: digest %s, golden %s", goldenKey(opts, spec), got, want)
	}
	if secureMitigations[spec.Mitigation] && r.DRAM.TotalOverTRH() != 0 {
		return fmt.Errorf("%s: watchdog saw %d rows over TRH", goldenKey(opts, spec), r.DRAM.TotalOverTRH())
	}
	return nil
}

// writeGolden simulates every workload's universe and writes the digests
// to path. It refuses to write a digest for a spec that fails the
// watchdog.
func writeGolden(path string) error {
	out := golden{}
	for _, wl := range workloadNames {
		out[wl] = map[string]string{}
		for _, b := range universe(wl) {
			s := sim.NewSuite(b.Opts)
			if err := s.Prefetch(b.Specs); err != nil {
				return err
			}
			for _, spec := range b.Specs {
				r, err := s.Run(spec)
				if err != nil {
					return err
				}
				if secureMitigations[spec.Mitigation] && r.DRAM.TotalOverTRH() != 0 {
					return fmt.Errorf("%s: watchdog saw %d rows over TRH", goldenKey(b.Opts, spec), r.DRAM.TotalOverTRH())
				}
				out[wl][goldenKey(b.Opts, spec)] = digest(r)
			}
		}
		fmt.Fprintf(os.Stderr, "golden: %s: %d specs\n", wl, len(out[wl]))
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
