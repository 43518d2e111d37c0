// Experiment harness: one entry point per table/figure of the paper's
// evaluation. Each experiment returns structured rows plus a formatted
// table, so the CLIs, benchmarks, and EXPERIMENTS.md all share one code
// path. Runs are cached and executed in parallel across workloads.

package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"rubix/internal/analytic"
	"rubix/internal/check"
	"rubix/internal/dram"
	"rubix/internal/geom"
	"rubix/internal/metrics"
	"rubix/internal/workload"
)

// Options configures an experiment suite.
type Options struct {
	// Scale is the fraction of the paper's 250M-instruction budget each
	// core retires (1.0 = full size). Hot-row counts scale with simulated
	// time; performance ratios are stable from ~0.1 up.
	Scale float64
	// Cores is the core count (paper: 4; Figure 15 uses 8).
	Cores int
	// Workloads restricts the SPEC suite (nil = all 18).
	Workloads []string
	// Mixes restricts the mix suite (nil = all 16; empty slice = none).
	Mixes []int
	// Seed decorrelates all randomness. The zero value selects the default
	// suite seed UNLESS SeedSet is true: seed 0 is a legal, distinct RNG
	// stream, and callers that mean it must say so explicitly.
	Seed uint64
	// SeedSet marks Seed as explicitly chosen, so Seed == 0 is honored
	// instead of being replaced by the default.
	SeedSet bool
	// Geometry overrides the baseline 16 GB geometry when non-zero.
	Geometry geom.Geometry
	// Paranoid attaches a fresh check.Checker to every simulation the Suite
	// runs; a run with invariant violations fails with them.
	Paranoid bool
	// OnRunDone, when non-nil, is called after each fresh (non-cached)
	// simulation completes successfully, with the spec, its result, and the
	// wall time it took in nanoseconds. Called from whichever goroutine ran
	// the simulation; the callback must be safe for concurrent use under
	// Prefetch. Used by CLIs for progress reporting.
	OnRunDone func(spec RunSpec, res *Result, wallNs int64)
	// OnRunErr, when non-nil, is called after each fresh simulation attempt
	// that fails, with the spec, the error, and the wall time spent before
	// failing. Together with OnRunDone it accounts for every attempted run
	// — progress reporting that only listened to OnRunDone used to
	// undercount sweeps with failures and silently drop them from timing
	// tables. Same concurrency contract as OnRunDone.
	OnRunErr func(spec RunSpec, err error, wallNs int64)
	// Store, when non-nil, adds a persistent tier under the in-memory
	// cache: Run consults it (by the canonical StoreKey) before
	// simulating, and persists every fresh successful Result to it.
	// Corrupt or stale entries surface as misses. The interface is
	// satisfied by internal/store.Store.
	Store ResultStore
	// OnStoreHit, when non-nil, is called when Run serves a spec from the
	// persistent store instead of simulating. Same concurrency contract as
	// OnRunDone.
	OnStoreHit func(spec RunSpec)
	// OnStoreErr, when non-nil, receives store-tier failures that Run
	// swallowed to keep the simulation result authoritative: a stored
	// payload that no longer decodes (served as a miss), or a failed
	// Put/encode after a successful run (result still returned). Same
	// concurrency contract as OnRunDone.
	OnStoreErr func(spec RunSpec, err error)
}

// withDefaults normalizes options.
func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Cores == 0 {
		o.Cores = 4
	}
	if o.Workloads == nil {
		o.Workloads = workload.SpecNames()
	}
	if o.Mixes == nil {
		o.Mixes = make([]int, 16)
		for i := range o.Mixes {
			o.Mixes[i] = i + 1
		}
	}
	if o.Seed == 0 && !o.SeedSet {
		o.Seed = 0x5242_1BCA // "RB"
	}
	if o.Geometry == (geom.Geometry{}) {
		o.Geometry = geom.DDR4_16GB()
	}
	return o
}

func (o Options) instrPerCore() uint64 {
	return uint64(250_000_000 * o.Scale)
}

// allWorkloadNames returns the SPEC workloads plus the configured mixes.
func (o Options) allWorkloadNames() []string {
	names := append([]string(nil), o.Workloads...)
	for _, m := range o.Mixes {
		names = append(names, fmt.Sprintf("mix%d", m))
	}
	return names
}

// RunSpec names one simulation configuration on a Suite: which workload to
// run under which mapping and mitigation, at which Rowhammer threshold, and
// whether to collect the activating-line census. The zero value is not a
// valid spec. RunSpec is comparable and doubles as the Suite's cache key,
// so two Runs with equal specs share one simulation.
type RunSpec struct {
	Workload   string // SPEC name, "mixN", or "stream-<kernel>"
	Mapping    string // mapping name (see MapperFor)
	Mitigation string // mitigation name (see mitigation.ByName)
	TRH        int    // Rowhammer threshold
	LineCensus bool   // collect the Table 3 activating-line census
}

// String renders the spec the way reports caption configurations.
func (k RunSpec) String() string {
	return fmt.Sprintf("%s/%s/%s/TRH=%d", k.Workload, k.Mapping, k.Mitigation, k.TRH)
}

// Suite caches simulation runs shared between experiments.
type Suite struct {
	opts Options
	// resolve is ResolveWorkload, swappable by tests exercising the
	// failed-run retry path.
	resolve func(spec string, cores int, g geom.Geometry, seed uint64) ([]workload.Profile, error)

	mu    sync.Mutex
	cache map[RunSpec]*runEntry // guarded by mu
}

type runEntry struct {
	once sync.Once
	res  *Result
	err  error
}

// NewSuite builds an experiment suite.
func NewSuite(opts Options) *Suite {
	return &Suite{opts: opts.withDefaults(), resolve: ResolveWorkload, cache: make(map[RunSpec]*runEntry)}
}

// Run executes (or returns the cached result of) one configuration. Only
// successful runs stay cached: a failed entry is dropped so a later Run of
// the same spec retries instead of replaying a possibly-transient error
// forever. With Options.Store set, a persistent tier sits under the
// in-memory cache: a store hit skips the simulation entirely, and every
// fresh success is persisted so identical runs are never recomputed across
// process restarts.
func (s *Suite) Run(spec RunSpec) (*Result, error) {
	s.mu.Lock()
	e, ok := s.cache[spec]
	if !ok {
		e = &runEntry{}
		s.cache[spec] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		start := metrics.WallNow()
		var key string
		if s.opts.Store != nil {
			key = s.storeKey(spec)
			if data, ok := s.opts.Store.Get(key); ok {
				res, err := DecodeResult(data)
				if err == nil {
					e.res = res
					if s.opts.OnStoreHit != nil {
						s.opts.OnStoreHit(spec)
					}
					return
				}
				// A payload the store verified but we cannot decode means
				// the result encoding moved without a key-version bump;
				// treat as a miss, resimulate, and overwrite below.
				if s.opts.OnStoreErr != nil {
					s.opts.OnStoreErr(spec, err)
				}
			}
		}
		profiles, err := s.resolve(spec.Workload, s.opts.Cores, s.opts.Geometry, s.opts.Seed)
		if err != nil {
			e.err = err
		} else {
			var chk *check.Checker
			if s.opts.Paranoid {
				chk = check.New(check.Config{})
			}
			e.res, e.err = Run(Config{
				Geometry:       s.opts.Geometry,
				TRH:            spec.TRH,
				MappingName:    spec.Mapping,
				MitigationName: spec.Mitigation,
				Workloads:      profiles,
				InstrPerCore:   s.opts.instrPerCore(),
				Seed:           s.opts.Seed,
				LineCensus:     spec.LineCensus,
				Check:          chk,
			})
		}
		if e.err != nil {
			if s.opts.OnRunErr != nil {
				s.opts.OnRunErr(spec, e.err, metrics.WallNow()-start)
			}
			return
		}
		if s.opts.Store != nil {
			// Persist before reporting done, so an OnRunDone observer that
			// restarts the process immediately still finds the entry. A
			// store failure never fails the run — the simulation result is
			// authoritative — but it is reported, not swallowed silently.
			if data, err := EncodeResult(e.res); err != nil {
				if s.opts.OnStoreErr != nil {
					s.opts.OnStoreErr(spec, err)
				}
			} else if err := s.opts.Store.Put(key, data); err != nil {
				if s.opts.OnStoreErr != nil {
					s.opts.OnStoreErr(spec, err)
				}
			}
		}
		if s.opts.OnRunDone != nil {
			s.opts.OnRunDone(spec, e.res, metrics.WallNow()-start)
		}
	})
	if e.err != nil {
		// Evict the failed entry — but only if the slot still holds it;
		// a concurrent Run may already have installed a fresh attempt.
		s.mu.Lock()
		if s.cache[spec] == e {
			delete(s.cache, spec)
		}
		s.mu.Unlock()
	}
	return e.res, e.err
}

// Prefetch executes the given configurations in parallel, one serial
// simulation per worker on NumCPU workers, filling the cache so subsequent
// Run calls return instantly. Duplicate specs cost nothing: the per-spec
// sync.Once guarantees each unique configuration is simulated exactly once
// even when Prefetch races with Run. Every failure is reported — the
// returned error joins one error per failed spec, in spec order.
func (s *Suite) Prefetch(specs []RunSpec) error {
	workers := runtime.NumCPU()
	if workers > len(specs) {
		workers = len(specs)
	}
	if workers < 1 {
		workers = 1
	}
	idx := make(chan int)
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				// Each index is delivered to exactly one worker, so errs[i]
				// has a single writer and wg.Wait orders it before the read.
				//lint:allow goroutineescape distinct-index writes, one writer per slot, sequenced by wg.Wait
				_, errs[i] = s.Run(specs[i])
			}
		}()
	}
	for i := range specs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return errors.Join(errs...)
}

// NormPerf returns the performance of (mapName, mitName, trh) on wl
// normalized to the unprotected Coffee Lake baseline, the paper's metric.
func (s *Suite) NormPerf(wl, mapName, mitName string, trh int) (float64, error) {
	base, err := s.Run(RunSpec{Workload: wl, Mapping: "coffeelake", Mitigation: "none", TRH: trh})
	if err != nil {
		return 0, err
	}
	res, err := s.Run(RunSpec{Workload: wl, Mapping: mapName, Mitigation: mitName, TRH: trh})
	if err != nil {
		return 0, err
	}
	if base.MeanIPC == 0 {
		return 0, fmt.Errorf("sim: zero baseline IPC for %s", wl)
	}
	return res.MeanIPC / base.MeanIPC, nil
}

// MeanNormPerf averages NormPerf across the workload list.
func (s *Suite) MeanNormPerf(wls []string, mapName, mitName string, trh int) (float64, error) {
	specs := make([]RunSpec, 0, 2*len(wls))
	for _, wl := range wls {
		specs = append(specs,
			RunSpec{Workload: wl, Mapping: "coffeelake", Mitigation: "none", TRH: trh},
			RunSpec{Workload: wl, Mapping: mapName, Mitigation: mitName, TRH: trh})
	}
	if err := s.Prefetch(specs); err != nil {
		return 0, err
	}
	sum := 0.0
	for _, wl := range wls {
		v, err := s.NormPerf(wl, mapName, mitName, trh)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum / float64(len(wls)), nil
}

// BestGS returns the paper's per-scheme gang-size choice: GS4 for AQUA
// (cheap mitigations, keep row-buffer hits), GS2 for SRS under Rubix-D,
// GS1 for BlockHammer (expensive mitigations, kill every hot row).
func BestGS(flavor, mit string) string {
	switch mit {
	case "aqua":
		return flavor + "-gs4"
	case "srs":
		if flavor == "rubixd" {
			return flavor + "-gs2"
		}
		return flavor + "-gs4"
	case "blockhammer":
		return flavor + "-gs1"
	}
	return flavor + "-gs4"
}

// --- Figure 3: baseline mappings vs threshold ----------------------------------

// Fig3Row is one bar of Figure 3.
type Fig3Row struct {
	Mitigation string
	TRH        int
	CoffeeLake float64 // normalized performance
	Skylake    float64
}

// Fig3 sweeps the Rowhammer threshold for the three secure mitigations on
// the Intel mappings.
func (s *Suite) Fig3() ([]Fig3Row, error) {
	wls := s.opts.allWorkloadNames()
	var rows []Fig3Row
	for _, mit := range []string{"aqua", "srs", "blockhammer"} {
		for _, trh := range []int{1024, 512, 256, 128} {
			cl, err := s.MeanNormPerf(wls, "coffeelake", mit, trh)
			if err != nil {
				return nil, err
			}
			sl, err := s.MeanNormPerf(wls, "skylake", mit, trh)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig3Row{mit, trh, cl, sl})
		}
	}
	return rows, nil
}

// FormatFig3 renders Figure 3 rows as a table.
func FormatFig3(rows []Fig3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: normalized performance vs T_RH (Intel mappings)\n")
	fmt.Fprintf(&b, "%-12s %6s %12s %12s\n", "mitigation", "T_RH", "CoffeeLake", "Skylake")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %6d %12.3f %12.3f\n", r.Mitigation, r.TRH, r.CoffeeLake, r.Skylake)
	}
	return b.String()
}

// --- Table 2: workload characteristics -------------------------------------------

// Table2Row is one workload's characterization.
type Table2Row struct {
	Workload   string
	MPKI       float64
	UniqueRows float64
	Hot64      int
	Hot512     int
}

// Table2 characterizes the SPEC suite on the unprotected Coffee Lake
// baseline.
func (s *Suite) Table2() ([]Table2Row, error) {
	specs := make([]RunSpec, 0, len(s.opts.Workloads))
	for _, wl := range s.opts.Workloads {
		specs = append(specs, RunSpec{Workload: wl, Mapping: "coffeelake", Mitigation: "none", TRH: 128})
	}
	if err := s.Prefetch(specs); err != nil {
		return nil, err
	}
	var rows []Table2Row
	for _, wl := range s.opts.Workloads {
		res, err := s.Run(RunSpec{Workload: wl, Mapping: "coffeelake", Mitigation: "none", TRH: 128})
		if err != nil {
			return nil, err
		}
		p, err := workload.SpecByName(wl)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{
			Workload:   wl,
			MPKI:       p.MPKI,
			UniqueRows: res.DRAM.MeanUniqueRows(),
			Hot64:      res.DRAM.TotalHot64(),
			Hot512:     res.DRAM.TotalHot512(),
		})
	}
	return rows, nil
}

// FormatTable2 renders Table 2 rows.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: workload characteristics (CoffeeLake, unprotected)\n")
	fmt.Fprintf(&b, "%-12s %8s %12s %10s %10s\n", "workload", "MPKI", "uniq rows/w", "ACT-64+", "ACT-512+")
	var sumU float64
	var sum64, sum512 int
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %8.2f %12.0f %10d %10d\n", r.Workload, r.MPKI, r.UniqueRows, r.Hot64, r.Hot512)
		sumU += r.UniqueRows
		sum64 += r.Hot64
		sum512 += r.Hot512
	}
	n := float64(len(rows))
	if n > 0 {
		fmt.Fprintf(&b, "%-12s %8s %12.0f %10.0f %10.0f\n", "average", "", sumU/n, float64(sum64)/n, float64(sum512)/n)
	}
	return b.String()
}

// --- Figure 4: illustrative microkernels ------------------------------------------

// Fig4Row reports one kernel under one mapping.
type Fig4Row struct {
	Kernel   string
	Mapping  string
	HotRows  int
	Analytic float64 // closed-form expectation (randomized mapping only)
}

// Fig4 reproduces the illustrative model: a 4 GB single-bank memory with
// 4 KB rows, three kernels with a 4 MB footprint and 1M accesses, under the
// sequential and the encrypted (Rubix-S GS1) mapping.
func (s *Suite) Fig4() ([]Fig4Row, error) {
	g := geom.Illustrative4GB()
	const footprintLines = 4 << 20 / 64 // 4 MB
	const accesses = 1_000_000

	kernels := []struct {
		name string
		gen  func() (workload.Generator, error)
	}{
		{"stream", func() (workload.Generator, error) { return workload.NewStream(0, footprintLines) }},
		{"stride-64", func() (workload.Generator, error) { return workload.NewStride(0, footprintLines, 64) }},
		{"random", func() (workload.Generator, error) { return workload.NewRandom(0, footprintLines, s.opts.Seed) }},
	}

	var rows []Fig4Row
	for _, mapName := range []string{"sequential", "rubixs-gs1"} {
		for _, k := range kernels {
			gen, err := k.gen()
			if err != nil {
				return nil, err
			}
			hot, err := s.runKernel(g, mapName, gen, accesses)
			if err != nil {
				return nil, err
			}
			row := Fig4Row{Kernel: k.name, Mapping: mapName, HotRows: hot}
			if mapName == "rubixs-gs1" {
				acts := 1.0 // stride & random: every access activates
				if k.name == "stream" || k.name == "stride-64" {
					// With randomization, each line is accessed ~16 times
					// (1M accesses / 64K lines); a row holding k lines gets
					// ~16k activations.
					acts = 1.0
				}
				row.Analytic = analytic.HotRows(accesses, footprintLines, g.TotalRows(), 64, acts)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// kernelChunk is runKernel's translation batch: large enough to amortize
// the batch mapper's per-call setup, small enough to stay in L1.
const kernelChunk = 256

// runKernel drives a raw generator through a mapping into a DRAM module
// with no core model (back-to-back accesses, as in the Figure 4 model) and
// returns the hot-row (>=64 ACTs) count. Addresses are translated in
// chunks through MapBatch; the generator draws are independent of access
// results, so chunked pre-translation replays the scalar loop exactly
// (runKernel only runs static mappings).
func (s *Suite) runKernel(g geom.Geometry, mapName string, gen workload.Generator, accesses int) (int, error) {
	mapper, err := MapperFor(mapName, g, s.opts.Seed)
	if err != nil {
		return 0, err
	}
	// The Figure 4 model is deliberately simple: an open-page policy with
	// no adaptive close, so a streaming kernel pays one activation per row.
	timing := dram.DDR4_2400()
	timing.OpenMax = 1 << 30
	mod := dram.New(dram.Config{Geometry: g, Timing: timing})
	now := 0.0
	var lines, phys [kernelChunk]uint64
	for done := 0; done < accesses; {
		n := kernelChunk
		if rem := accesses - done; rem < n {
			n = rem
		}
		for j := 0; j < n; j++ {
			lines[j] = gen.Next()
		}
		mapper.MapBatch(lines[:n], phys[:n])
		for j := 0; j < n; j++ {
			res := mod.Access(phys[j], now)
			now = res.Completion
		}
		done += n
	}
	return mod.Finalize().TotalHot64(), nil
}

// FormatFig4 renders Figure 4 rows.
func FormatFig4(rows []Fig4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: hot rows of illustrative kernels (4GB, 4KB rows, 4MB footprint, 1M accesses)\n")
	fmt.Fprintf(&b, "%-12s %-12s %10s %12s\n", "kernel", "mapping", "hot rows", "analytic")
	for _, r := range rows {
		an := ""
		if r.Analytic != 0 {
			an = fmt.Sprintf("%.2f", r.Analytic)
		}
		fmt.Fprintf(&b, "%-12s %-12s %10d %12s\n", r.Kernel, r.Mapping, r.HotRows, an)
	}
	return b.String()
}

// --- Table 3: activating lines per hot row ------------------------------------------

// Table3Row reports the activating-line distribution for one workload.
type Table3Row struct {
	Workload   string
	HotRows    int
	Pct1to32   float64
	Pct32to64  float64
	Pct64to128 float64
	AvgLines   float64
}

// Table3 measures, for each hot row on the baseline mapping, how many
// distinct lines contributed activations (workloads with 100+ hot rows).
func (s *Suite) Table3() ([]Table3Row, error) {
	specs := make([]RunSpec, 0, len(s.opts.Workloads))
	for _, wl := range s.opts.Workloads {
		specs = append(specs, RunSpec{Workload: wl, Mapping: "coffeelake", Mitigation: "none", TRH: 128, LineCensus: true})
	}
	if err := s.Prefetch(specs); err != nil {
		return nil, err
	}
	var rows []Table3Row
	for _, wl := range s.opts.Workloads {
		res, err := s.Run(RunSpec{Workload: wl, Mapping: "coffeelake", Mitigation: "none", TRH: 128, LineCensus: true})
		if err != nil {
			return nil, err
		}
		var buckets [3]int
		lineSum, hot := 0, 0
		for _, w := range res.DRAM.Windows {
			for i := range buckets {
				buckets[i] += w.LineBuckets[i]
			}
			lineSum += w.LineSum
			hot += w.Hot64
		}
		if hot < 100 {
			continue
		}
		rows = append(rows, Table3Row{
			Workload:   wl,
			HotRows:    hot,
			Pct1to32:   100 * float64(buckets[0]) / float64(hot),
			Pct32to64:  100 * float64(buckets[1]) / float64(hot),
			Pct64to128: 100 * float64(buckets[2]) / float64(hot),
			AvgLines:   float64(lineSum) / float64(hot),
		})
	}
	return rows, nil
}

// FormatTable3 renders Table 3 rows.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: activating lines per hot row (workloads with 100+ hot rows)\n")
	fmt.Fprintf(&b, "%-12s %9s %8s %8s %9s %9s\n", "workload", "hot rows", "1-32", "32-64", "64-128", "avg lines")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %9d %7.1f%% %7.1f%% %8.1f%% %9.1f\n",
			r.Workload, r.HotRows, r.Pct1to32, r.Pct32to64, r.Pct64to128, r.AvgLines)
	}
	return b.String()
}

// --- Figure 7 / Figure 12: hot-row census ---------------------------------------------

// HotRowsRow reports hot-row counts for one workload across mappings.
type HotRowsRow struct {
	Workload string
	Counts   []int // aligned with the mapping list passed in
}

// HotRows counts ACT-64+ hot rows per workload for each mapping (Figure 7
// uses {coffeelake, skylake, rubixs-gs4}; Figure 12 adds the other Rubix
// variants, averaged over workloads).
func (s *Suite) HotRows(mappings []string) ([]HotRowsRow, error) {
	var specs []RunSpec
	for _, wl := range s.opts.Workloads {
		for _, m := range mappings {
			specs = append(specs, RunSpec{Workload: wl, Mapping: m, Mitigation: "none", TRH: 128})
		}
	}
	if err := s.Prefetch(specs); err != nil {
		return nil, err
	}
	var rows []HotRowsRow
	for _, wl := range s.opts.Workloads {
		row := HotRowsRow{Workload: wl}
		for _, m := range mappings {
			res, err := s.Run(RunSpec{Workload: wl, Mapping: m, Mitigation: "none", TRH: 128})
			if err != nil {
				return nil, err
			}
			row.Counts = append(row.Counts, res.DRAM.TotalHot64())
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatHotRows renders a hot-row census.
func FormatHotRows(title string, mappings []string, rows []HotRowsRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-12s", title, "workload")
	for _, m := range mappings {
		fmt.Fprintf(&b, " %14s", m)
	}
	fmt.Fprintln(&b)
	sums := make([]float64, len(mappings))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s", r.Workload)
		for i, c := range r.Counts {
			fmt.Fprintf(&b, " %14d", c)
			sums[i] += float64(c)
		}
		fmt.Fprintln(&b)
	}
	if len(rows) > 0 {
		fmt.Fprintf(&b, "%-12s", "mean")
		for _, s := range sums {
			fmt.Fprintf(&b, " %14.1f", s/float64(len(rows)))
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// --- Figure 8 / Figure 13: per-workload performance at TRH 128 ---------------------------

// PerfRow reports normalized performance for one workload across mappings.
type PerfRow struct {
	Workload string
	Perf     []float64 // aligned with mappings
}

// PerfAtTRH evaluates one mitigation at the given threshold across the
// mappings, per workload, normalized to unprotected Coffee Lake.
func (s *Suite) PerfAtTRH(mit string, trh int, mappings []string) ([]PerfRow, error) {
	wls := s.opts.allWorkloadNames()
	var specs []RunSpec
	for _, wl := range wls {
		specs = append(specs, RunSpec{Workload: wl, Mapping: "coffeelake", Mitigation: "none", TRH: trh})
		for _, m := range mappings {
			specs = append(specs, RunSpec{Workload: wl, Mapping: m, Mitigation: mit, TRH: trh})
		}
	}
	if err := s.Prefetch(specs); err != nil {
		return nil, err
	}
	var rows []PerfRow
	for _, wl := range wls {
		row := PerfRow{Workload: wl}
		for _, m := range mappings {
			v, err := s.NormPerf(wl, m, mit, trh)
			if err != nil {
				return nil, err
			}
			row.Perf = append(row.Perf, v)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatPerf renders per-workload performance rows.
func FormatPerf(title string, mappings []string, rows []PerfRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-12s", title, "workload")
	for _, m := range mappings {
		fmt.Fprintf(&b, " %14s", m)
	}
	fmt.Fprintln(&b)
	sums := make([]float64, len(mappings))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s", r.Workload)
		for i, v := range r.Perf {
			fmt.Fprintf(&b, " %14.3f", v)
			sums[i] += v
		}
		fmt.Fprintln(&b)
	}
	if len(rows) > 0 {
		fmt.Fprintf(&b, "%-12s", "mean")
		for _, s := range sums {
			fmt.Fprintf(&b, " %14.3f", s/float64(len(rows)))
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// --- Figure 9 / Table 4 / §4.8 / §4.9: gang-size sensitivity ------------------------------

// GangSizeRow reports the average slowdown of one configuration.
type GangSizeRow struct {
	Mapping     string
	Mitigation  string
	SlowdownPct float64
	HitRate     float64
	PowerMW     float64
	HotRows     float64
}

// GangSweep measures mean slowdown, hit rate, power, and hot rows for each
// (mapping, mitigation) pair over the SPEC workloads.
func (s *Suite) GangSweep(mappings, mitigations []string, trh int) ([]GangSizeRow, error) {
	wls := s.opts.Workloads
	var specs []RunSpec
	for _, wl := range wls {
		specs = append(specs, RunSpec{Workload: wl, Mapping: "coffeelake", Mitigation: "none", TRH: trh})
		for _, m := range mappings {
			for _, mit := range mitigations {
				specs = append(specs, RunSpec{Workload: wl, Mapping: m, Mitigation: mit, TRH: trh})
			}
		}
	}
	if err := s.Prefetch(specs); err != nil {
		return nil, err
	}
	var rows []GangSizeRow
	for _, m := range mappings {
		for _, mit := range mitigations {
			var perf, hit, pow, hot float64
			for _, wl := range wls {
				v, err := s.NormPerf(wl, m, mit, trh)
				if err != nil {
					return nil, err
				}
				res, err := s.Run(RunSpec{Workload: wl, Mapping: m, Mitigation: mit, TRH: trh})
				if err != nil {
					return nil, err
				}
				perf += v
				hit += res.HitRate()
				pow += res.PowerMW
				hot += float64(res.DRAM.TotalHot64())
			}
			n := float64(len(wls))
			rows = append(rows, GangSizeRow{
				Mapping:     m,
				Mitigation:  mit,
				SlowdownPct: 100 * (1 - perf/n),
				HitRate:     hit / n,
				PowerMW:     pow / n,
				HotRows:     hot / n,
			})
		}
	}
	return rows, nil
}

// FormatGangSweep renders gang-size sensitivity rows.
func FormatGangSweep(title string, rows []GangSizeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-18s %-12s %10s %8s %10s %10s\n",
		title, "mapping", "mitigation", "slowdown", "RBHR", "power mW", "hot rows")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %-12s %9.2f%% %7.1f%% %10.0f %10.1f\n",
			r.Mapping, r.Mitigation, r.SlowdownPct, 100*r.HitRate, r.PowerMW, r.HotRows)
	}
	return b.String()
}

// --- §5.4: remap rate bookkeeping ----------------------------------------------------

// RemapStats reports Rubix-D remapping activity for one workload.
type RemapStats struct {
	Workload    string
	Swaps       uint64
	DemandActs  uint64
	ExtraActPct float64 // extra activations as % of demand activations
}

// RemapRate measures Rubix-D swap overhead (§5.4 expects ~1.5% extra
// activations at a 1% remap rate, since half the episodes skip).
func (s *Suite) RemapRate(gs int) ([]RemapStats, error) {
	mapName := fmt.Sprintf("rubixd-gs%d", gs)
	var specs []RunSpec
	for _, wl := range s.opts.Workloads {
		specs = append(specs, RunSpec{Workload: wl, Mapping: mapName, Mitigation: "none", TRH: 128})
	}
	if err := s.Prefetch(specs); err != nil {
		return nil, err
	}
	var rows []RemapStats
	for _, wl := range s.opts.Workloads {
		res, err := s.Run(RunSpec{Workload: wl, Mapping: mapName, Mitigation: "none", TRH: 128})
		if err != nil {
			return nil, err
		}
		r := RemapStats{Workload: wl, Swaps: res.RemapSwaps, DemandActs: res.DRAM.DemandActs}
		if res.DRAM.DemandActs > 0 {
			r.ExtraActPct = 100 * float64(res.DRAM.ExtraActs) / float64(res.DRAM.DemandActs)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// --- Sorting helper used by reports ---------------------------------------------------

// SortRowsByHotness orders Table 2 rows the way the paper prints them
// (descending ACT-64+).
func SortRowsByHotness(rows []Table2Row) {
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Hot64 > rows[j].Hot64 })
}
