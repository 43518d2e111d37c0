package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"rubix/internal/sim"
)

// runStats accumulates one run's measurements across rounds.
type runStats struct {
	setupS    []float64 // per set-up repetition
	makespanS []float64 // per round
	opsPerS   []float64 // per round
	allocMB   []float64 // per round
	opMs      []float64 // per op, every round
	rssMB     []float64 // per round: the peak resident set during it
	rounds    int

	// Fresh simulations of the current round: host wall time, simulated
	// instructions (the per-core budget times the core count) and
	// simulated accesses. endRound folds them into the per-round rates.
	freshWallNs int64
	freshInstr  float64
	freshAcc    uint64

	minstrPerS  []float64 // per round with fresh simulations
	nsPerAccess []float64 // per round with fresh simulations

	attempted, failed int
	failures          []string // the first few, for the report
}

func (st *runStats) fail(err error) {
	st.failed++
	if len(st.failures) < 5 {
		st.failures = append(st.failures, err.Error())
	}
}

// endToEnd computes the end-to-end metrics, with notes for the report.
func (st *runStats) endToEnd() (map[string]float64, map[string]string) {
	pct, tv, beyond := tail(st.opMs)
	vals := map[string]float64{
		"setup_s":            median(st.setupS),
		"sweep_s":            median(st.makespanS),
		"ops_per_s":          median(st.opsPerS),
		"op_p50_ms":          median(st.opMs),
		"op_tail_ms":         tv,
		"minstr_per_s":       median(st.minstrPerS),
		"host_ns_per_access": median(st.nsPerAccess),
		"peak_rss_mb":        median(st.rssMB),
		"alloc_mb":           median(st.allocMB),
	}
	notes := map[string]string{
		"setup_s":     fmt.Sprintf("(median of %d set-ups)", len(st.setupS)),
		"sweep_s":     fmt.Sprintf("(median round makespan of %d rounds; range %.4g-%.4g s)", st.rounds, slices.Min(st.makespanS), slices.Max(st.makespanS)),
		"op_p50_ms":   fmt.Sprintf("(n=%d ops)", len(st.opMs)),
		"op_tail_ms":  fmt.Sprintf("(p%g of n=%d ops, %d beyond)", pct, len(st.opMs), beyond),
		"alloc_mb":    "(median per round)",
		"peak_rss_mb": fmt.Sprintf("(median per round; range %.4g-%.4g MB)", slices.Min(st.rssMB), slices.Max(st.rssMB)),
	}
	for k, xs := range map[string][]float64{"minstr_per_s": st.minstrPerS, "host_ns_per_access": st.nsPerAccess} {
		notes[k] = fmt.Sprintf("(median of %d rounds' fresh simulations; range %.4g-%.4g)", len(xs), slices.Min(xs), slices.Max(xs))
	}
	return vals, notes
}

// endRound turns the round's fresh simulations into its simulation rates.
// The end-to-end rates are medians over rounds, not ratios of sums over the
// run, so a round that the host slowed down moves them no more than any
// other round.
func (st *runStats) endRound() {
	if st.freshWallNs > 0 && st.freshAcc > 0 {
		st.minstrPerS = append(st.minstrPerS, st.freshInstr/1e6/(float64(st.freshWallNs)/1e9))
		st.nsPerAccess = append(st.nsPerAccess, float64(st.freshWallNs)/float64(st.freshAcc))
	}
	st.freshWallNs, st.freshInstr, st.freshAcc = 0, 0, 0
}

// measure runs round(r) for r = 0, 1, ... until seconds have passed (at
// least one round). Each round starts after a full garbage collection, as
// testing.B does, so no round pays for the previous one's garbage, and with
// the freed heap returned to the operating system, so each round's peak
// resident set is its own and not the largest of the rounds before it.
func measure(seconds float64, st *runStats, round func(r int) error) error {
	start := time.Now()
	for r := 0; r == 0 || time.Since(start).Seconds() < seconds; r++ {
		if err := resetPeakRSS(); err != nil {
			return err
		}
		if err := round(r); err != nil {
			return err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		st.rssMB = append(st.rssMB, rss)
		st.endRound()
		st.rounds++
	}
	return nil
}

func allocBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// suiteWorkload drives fig-sweep and multichannel: each round Prefetches
// its batches on fresh Suites, which is what cmd/experiments does.
type suiteWorkload struct {
	name  string
	round func(seed uint64, r int) []batch
}

var suiteWorkloads = map[string]suiteWorkload{
	wlFigSweep:     {name: wlFigSweep, round: figRound},
	wlMultichannel: {name: wlMultichannel, round: mcRound},
}

// setup loads the golden digests and Prefetches the first batch of round
// 0 as a warm-up, so lazy initialisation and heap growth are paid before
// timing starts.
func (w suiteWorkload) setup(seed uint64) (golden, error) {
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	b := w.round(seed, 0)[0]
	if err := sim.NewSuite(b.Opts).Prefetch(b.Specs); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return g, nil
}

// runRound Prefetches one round and checks every result. Only the
// Prefetch calls are timed.
func (w suiteWorkload) runRound(g golden, bs []batch, st *runStats) {
	var mu sync.Mutex
	failed := map[sim.RunSpec]error{}
	suites := make([]*sim.Suite, len(bs))
	ops := 0
	a0 := allocBytes()
	start := time.Now()
	for i, b := range bs {
		opts := b.Opts
		instr := float64(opts.Cores) * float64(uint64(250_000_000*opts.Scale))
		opts.OnRunDone = func(_ sim.RunSpec, res *sim.Result, wallNs int64) {
			mu.Lock()
			defer mu.Unlock()
			st.opMs = append(st.opMs, float64(wallNs)/1e6)
			st.freshWallNs += wallNs
			st.freshInstr += instr
			st.freshAcc += res.DRAM.Accesses
		}
		opts.OnRunErr = func(spec sim.RunSpec, err error, wallNs int64) {
			mu.Lock()
			defer mu.Unlock()
			st.opMs = append(st.opMs, float64(wallNs)/1e6)
			failed[spec] = err
		}
		suites[i] = sim.NewSuite(opts)
		//lint:allow errdiscard failures are counted per spec below, from what OnRunErr recorded
		_ = suites[i].Prefetch(b.Specs)
		ops += len(b.Specs)
	}
	el := time.Since(start).Seconds()
	st.allocMB = append(st.allocMB, float64(allocBytes()-a0)/(1<<20))
	st.makespanS = append(st.makespanS, el)
	st.opsPerS = append(st.opsPerS, float64(ops)/el)
	for i, b := range bs {
		for _, spec := range b.Specs {
			st.attempted++
			if err := failed[spec]; err != nil {
				st.fail(fmt.Errorf("%s: %w", goldenKey(b.Opts, spec), err))
				continue
			}
			res, err := suites[i].Run(spec) // cached by the Prefetch
			if err == nil {
				err = checkResult(g, w.name, b.Opts, spec, res)
			}
			if err != nil {
				st.fail(err)
			}
		}
	}
}

// simConfig builds the sim.Config Suite.Run would build for spec under
// opts, at the given shard setting.
func simConfig(opts sim.Options, spec sim.RunSpec, shards int) (sim.Config, error) {
	profiles, err := sim.ResolveWorkload(spec.Workload, opts.Cores, opts.Geometry, opts.Seed)
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{
		Geometry:       opts.Geometry,
		TRH:            spec.TRH,
		MappingName:    spec.Mapping,
		MitigationName: spec.Mitigation,
		Workloads:      profiles,
		InstrPerCore:   uint64(250_000_000 * opts.Scale),
		Seed:           opts.Seed,
		LineCensus:     spec.LineCensus,
		Shards:         shards,
	}, nil
}

// timedSimRun runs spec through sim.Run, timing workload resolution and
// the run together as replicaRun does.
func timedSimRun(opts sim.Options, spec sim.RunSpec, shards int) (*sim.Result, int64, error) {
	t0 := time.Now()
	cfg, err := simConfig(opts, spec, shards)
	if err != nil {
		return nil, 0, err
	}
	res, err := sim.Run(cfg)
	return res, int64(time.Since(t0)), err
}

// traceSpecs runs each spec through sim.Run untraced and then through the
// traced replica, and checks that both produce the golden statistics.
func traceSpecs(g golden, workload string, bs []batch, st *runStats) *layerStats {
	ls := &layerStats{}
	for _, b := range bs {
		for _, spec := range b.Specs {
			st.attempted++
			ref, refNs, err := timedSimRun(b.Opts, spec, 1)
			if err != nil {
				st.fail(fmt.Errorf("sim.Run %s: %w", goldenKey(b.Opts, spec), err))
				continue
			}
			rep, repNs, err := replicaRun(&ls.t, b.Opts, spec)
			if err != nil {
				st.fail(fmt.Errorf("replica %s: %w", goldenKey(b.Opts, spec), err))
				continue
			}
			if digest(rep) != digest(ref) {
				st.fail(fmt.Errorf("replica %s: statistics differ from sim.Run", goldenKey(b.Opts, spec)))
				continue
			}
			if err := checkResult(g, workload, b.Opts, spec, rep); err != nil {
				st.fail(err)
				continue
			}
			ls.add(rep, repNs, refNs)
		}
	}
	return ls
}

// shardRatio times one spec auto-sharded (Shards 0, the default) and
// serial (Shards 1), alternating, and returns median(auto)/median(serial).
func shardRatio(opts sim.Options, spec sim.RunSpec, st *runStats) float64 {
	var auto, serial []float64
	for i := 0; i < 5; i++ {
		for _, sh := range []int{0, 1} {
			st.attempted++
			_, ns, err := timedSimRun(opts, spec, sh)
			if err != nil {
				st.fail(fmt.Errorf("shard ratio %s: %w", goldenKey(opts, spec), err))
				return 0
			}
			if sh == 0 {
				auto = append(auto, float64(ns))
			} else {
				serial = append(serial, float64(ns))
			}
		}
	}
	return median(auto) / median(serial)
}

// shardSpec picks the spec shardRatio times: the hot-workload
// coffeelake/blockhammer spec (a shardable mitigation under the cheapest
// translation) of the round's last batch, which holds the widest geometry.
func shardSpec(bs []batch) (sim.Options, sim.RunSpec) {
	b := bs[len(bs)-1]
	for _, s := range b.Specs {
		if s.Mapping == "coffeelake" && s.Mitigation == "blockhammer" && slices.Contains(hotPool, s.Workload) {
			return b.Opts, s
		}
	}
	return b.Opts, b.Specs[0]
}

// traceSubset picks the replica's specs from round 0: for fig-sweep the
// hot-workload row of every pair plus the census specs, for multichannel
// every spec.
func traceSubset(workload string, bs []batch) []batch {
	if workload != wlFigSweep {
		return bs
	}
	hot := map[string]bool{}
	for _, w := range hotPool {
		hot[w] = true
	}
	var out []batch
	for _, b := range bs {
		sub := batch{Opts: b.Opts}
		for _, s := range b.Specs {
			if hot[s.Workload] {
				sub.Specs = append(sub.Specs, s)
			}
		}
		out = append(out, sub)
	}
	return out
}

// runSuiteWorkload runs fig-sweep or multichannel.
func runSuiteWorkload(w suiteWorkload, seed uint64, seconds float64, traced bool) (map[string]float64, map[string]string, *runStats, string, error) {
	st := &runStats{}
	var g golden
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if g, err = w.setup(seed); err != nil {
			return nil, nil, nil, "", err
		}
		st.setupS = append(st.setupS, time.Since(t0).Seconds())
	}
	err := measure(seconds, st, func(r int) error {
		w.runRound(g, w.round(seed, r), st)
		return nil
	})
	if err != nil {
		return nil, nil, nil, "", err
	}
	if !traced {
		vals, notes := st.endToEnd()
		return vals, notes, st, "", nil
	}
	r0 := w.round(seed, 0)
	ls := traceSpecs(g, w.name, traceSubset(w.name, r0), st)
	vals := map[string]float64{}
	ls.metrics(vals)
	opts, spec := shardSpec(r0)
	vals["sim.shard.wall_ratio"] = shardRatio(opts, spec, st)
	vals["suite.run_ms_p50"] = median(st.opMs)
	for _, k := range []string{"server.run.self_ms_p50", "server.batch.self_ms_p50", "store.get_us_p50",
		"store.put_us_p50", "store.hit_ratio", "codec.decode_us", "codec.encode_us",
		"server.sims_per_spec", "server.specs_per_batch"} {
		vals[k] = 0 // no store, codec or server on this workload's path
	}
	notes := map[string]string{
		"sim.shard.wall_ratio": fmt.Sprintf("(%s, %d channels)", spec, opts.Geometry.Channels),
		"trace.overhead_pct":   fmt.Sprintf("(%d replica runs)", ls.runs),
	}
	return vals, notes, st, ls.table(), nil
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 5
