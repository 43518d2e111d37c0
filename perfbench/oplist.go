package main

import (
	"fmt"

	"rubix/internal/geom"
	"rubix/internal/rng"
	"rubix/internal/sim"
)

// Workload names accepted by --workload.
const (
	wlFigSweep     = "fig-sweep"
	wlMultichannel = "multichannel"
	wlServe        = "serve"
)

var workloadNames = []string{wlFigSweep, wlMultichannel, wlServe}

// The paper's evaluation threshold (Figs 3, 8, 13, 15).
const trh = 128

// serveFreshTRH is the threshold of serve's fresh specs. It keeps them
// disjoint from the store-filled TRH-128 specs, so they always miss.
const serveFreshTRH = 64

// Spec pools. Every op list draws from these fixed pools, so the set of
// specs any seed can produce is finite and golden.json holds a digest for
// each of them.
var (
	figMappings    = []string{"coffeelake", "skylake", "rubixs-gs1", "rubixs-gs4", "rubixd-gs2"}
	figMitigations = []string{"none", "aqua", "srs", "blockhammer"}
	censusMappings = []string{"coffeelake", "rubixs-gs1", "rubixs-gs4", "rubixd-gs2"}
	// Hot and cold SPEC workloads and mixes of moderate cost. lbm and
	// blender are left out: at 2-3x the cost of the rest, whichever rows
	// a seed gave them would dominate the run-to-run spread.
	hotPool  = []string{"mcf", "gcc", "roms", "cactuBSSN"}
	coldPool = []string{"xz", "nab", "namd", "perlbench"}
	mixPool  = []string{"mix3", "mix4", "mix6", "mix7"}

	mcMappings    = []string{"coffeelake", "rubixs-gs1", "rubixd-gs2"}
	mcMitigations = []string{"none", "blockhammer", "trr", "aqua"}

	// Suite seeds a round may run under; the workload seed picks one per
	// round.
	figSeeds = []uint64{11, 12, 13}
	mcSeeds  = []uint64{21, 22}
)

// serveSeed is the one suite seed of serve's server; the store key covers
// it, so the store filled at set-up is only valid under it.
const serveSeed = 31

// Per-workload instruction budgets, as a share of the paper's 250M
// instructions per core. Each is sized so one run of --seconds 30 holds
// enough rounds for medians (see README.md).
const (
	figScale   = 0.03
	mcScale    = 0.01
	serveScale = 0.01
)

func figOptions(seed uint64) sim.Options {
	return sim.Options{Scale: figScale, Cores: 4, Geometry: geom.DDR4_16GB(), Seed: seed, SeedSet: true}
}

func mcOptions(g geom.Geometry, seed uint64) sim.Options {
	return sim.Options{Scale: mcScale, Cores: 8, Geometry: g, Seed: seed, SeedSet: true}
}

func serveOptions() sim.Options {
	return sim.Options{Scale: serveScale, Cores: 4, Geometry: geom.DDR4_16GB(), Seed: serveSeed, SeedSet: true}
}

var mcGeometries = []geom.Geometry{geom.DDR4_32GB2Ch(), geom.DDR4_32GB4Ch()}

// batch is the part of a round that runs on one Suite: the specs Prefetch
// receives, under one set of options.
type batch struct {
	Opts  sim.Options
	Specs []sim.RunSpec
}

// roundRNG derives round r's generator from the workload seed, so the op
// list of a run is a pure function of (seed, round).
func roundRNG(seed uint64, r int) *rng.Xoshiro256 {
	return rng.NewXoshiro256(rng.Mix64(seed) ^ rng.Mix64(uint64(r)+0x51ED))
}

func perm(x *rng.Xoshiro256, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := x.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func shuffle(x *rng.Xoshiro256, specs []sim.RunSpec) {
	for i := len(specs) - 1; i > 0; i-- {
		j := x.Intn(i + 1)
		specs[i], specs[j] = specs[j], specs[i]
	}
}

// latin assigns one workload from pool to every (mapping, mitigation)
// pair: row i, column j gets pool[p[(r[i]+c[j]) mod len(pool)]] for seeded
// permutations r, c and p. Every mapping row sees each pool member equally
// often (when len(pool) divides the column count), so a seed changes which
// rows carry which workload but not the total cost of the set.
func latin(x *rng.Xoshiro256, mappings, mitigations, pool []string, threshold int) []sim.RunSpec {
	r, c, p := perm(x, len(mappings)), perm(x, len(mitigations)), perm(x, len(pool))
	out := make([]sim.RunSpec, 0, len(mappings)*len(mitigations))
	for i, m := range mappings {
		for j, g := range mitigations {
			w := pool[p[(r[i]+c[j])%len(pool)]]
			out = append(out, sim.RunSpec{Workload: w, Mapping: m, Mitigation: g, TRH: threshold})
		}
	}
	return out
}

// figRound is round r of fig-sweep: every mapping x mitigation pair once
// with a hot SPEC workload, once with a cold one and once with a mix, plus
// one LineCensus spec per census mapping, in seeded order under a seeded
// suite seed.
func figRound(seed uint64, r int) []batch {
	x := roundRNG(seed, r)
	suiteSeed := figSeeds[x.Intn(len(figSeeds))]
	var specs []sim.RunSpec
	for _, pool := range [][]string{hotPool, coldPool, mixPool} {
		specs = append(specs, latin(x, figMappings, figMitigations, pool, trh)...)
	}
	for _, m := range censusMappings {
		w := hotPool[x.Intn(len(hotPool))]
		specs = append(specs, sim.RunSpec{Workload: w, Mapping: m, Mitigation: "none", TRH: trh, LineCensus: true})
	}
	shuffle(x, specs)
	return []batch{{Opts: figOptions(suiteSeed), Specs: specs}}
}

// mcRound is round r of multichannel: on the 2- and then the 4-channel
// geometry, every mapping x mitigation pair once with a hot SPEC workload,
// at the default shard setting.
func mcRound(seed uint64, r int) []batch {
	x := roundRNG(seed, r)
	suiteSeed := mcSeeds[x.Intn(len(mcSeeds))]
	out := make([]batch, 0, len(mcGeometries))
	for _, g := range mcGeometries {
		specs := latin(x, mcMappings, mcMitigations, hotPool, trh)
		shuffle(x, specs)
		out = append(out, batch{Opts: mcOptions(g, suiteSeed), Specs: specs})
	}
	return out
}

// serveHitSpecs is the spec set serve's set-up writes to the store: every
// fig-sweep pair with every hot workload and mix.
func serveHitSpecs() []sim.RunSpec {
	var out []sim.RunSpec
	for _, pool := range [][]string{hotPool, mixPool} {
		for _, w := range pool {
			for _, m := range figMappings {
				for _, g := range figMitigations {
					out = append(out, sim.RunSpec{Workload: w, Mapping: m, Mitigation: g, TRH: trh})
				}
			}
		}
	}
	return out
}

// serveFreshSpecs is the pool serve's fresh (store-missing) specs come
// from.
func serveFreshSpecs() []sim.RunSpec {
	var out []sim.RunSpec
	for _, w := range hotPool {
		for _, m := range figMappings {
			for _, g := range figMitigations {
				out = append(out, sim.RunSpec{Workload: w, Mapping: m, Mitigation: g, TRH: serveFreshTRH})
			}
		}
	}
	return out
}

// Shape of one serve round, per connection.
const (
	serveConns        = 2
	serveBatchOps     = 9 // POST /batch requests
	serveRunOps       = 3 // POST /run requests
	serveBatchSize    = 8 // specs per /batch request
	serveSharedPerRnd = 9 // store-hit specs sent on both connections

	// serveParallelism bounds the simulations each batch runs at once.
	// A connection has one request, so one batch, in flight at a time;
	// with one simulation per batch, no more simulations run at once than
	// there are connections (and cores on the reference host). The
	// server's default, NumCPU per batch, lets batches of both
	// connections overlap to twice that, and each simulation's wall time
	// then depends on how the batches happened to overlap.
	serveParallelism = 1
)

// serveOp is one HTTP request of a serve round: a single-spec /run when
// Run is set, else a /batch of Specs.
type serveOp struct {
	Run   bool
	Specs []sim.RunSpec
}

// serveRound is round r of serve: for each of two connections, a seeded
// sequence of /batch and /run requests. Both connections carry the round's
// fresh specs and a few shared store-hit specs, so identical specs race
// across connections and the server's coalescing is exercised.
func serveRound(seed uint64, r int) [][]serveOp {
	x := roundRNG(seed, r)
	hits := serveHitSpecs()
	hp := perm(x, len(hits))
	// The fresh specs are every mapping x mitigation pair once, with the
	// hot workloads assigned by a Latin square: every round simulates each
	// workload, mapping and mitigation equally often, so its fresh
	// simulations cost about the same as any other round's.
	fresh := latin(x, figMappings, figMitigations, hotPool, serveFreshTRH)
	slots := serveBatchOps*serveBatchSize + serveRunOps
	ownHits := slots - len(fresh) - serveSharedPerRnd
	conns := make([][]serveOp, serveConns)
	next := serveSharedPerRnd
	for c := range conns {
		specs := append([]sim.RunSpec(nil), fresh...)
		for _, i := range hp[:serveSharedPerRnd] {
			specs = append(specs, hits[i])
		}
		for _, i := range hp[next : next+ownHits] {
			specs = append(specs, hits[i])
		}
		next += ownHits
		shuffle(x, specs)
		kinds := make([]bool, serveBatchOps+serveRunOps)
		for i, j := range perm(x, len(kinds)) {
			kinds[i] = j < serveRunOps
		}
		ops := make([]serveOp, 0, len(kinds))
		for _, run := range kinds {
			n := serveBatchSize
			if run {
				n = 1
			}
			ops = append(ops, serveOp{Run: run, Specs: specs[:n]})
			specs = specs[n:]
		}
		conns[c] = ops
	}
	return conns
}

// goldenKey names one spec under one set of options in golden.json.
func goldenKey(opts sim.Options, spec sim.RunSpec) string {
	return fmt.Sprintf("ch=%d seed=%d scale=%g cores=%d %s census=%t",
		opts.Geometry.Channels, opts.Seed, opts.Scale, opts.Cores, spec, spec.LineCensus)
}

// universe lists every (options, spec) pair a workload's op lists can
// contain: the set golden.json covers.
func universe(workload string) []batch {
	switch workload {
	case wlFigSweep:
		var out []batch
		for _, s := range figSeeds {
			var specs []sim.RunSpec
			for _, pool := range [][]string{hotPool, coldPool, mixPool} {
				for _, w := range pool {
					for _, m := range figMappings {
						for _, g := range figMitigations {
							specs = append(specs, sim.RunSpec{Workload: w, Mapping: m, Mitigation: g, TRH: trh})
						}
					}
				}
			}
			for _, w := range hotPool {
				for _, m := range censusMappings {
					specs = append(specs, sim.RunSpec{Workload: w, Mapping: m, Mitigation: "none", TRH: trh, LineCensus: true})
				}
			}
			out = append(out, batch{Opts: figOptions(s), Specs: specs})
		}
		return out
	case wlMultichannel:
		var out []batch
		for _, s := range mcSeeds {
			for _, g := range mcGeometries {
				var specs []sim.RunSpec
				for _, w := range hotPool {
					for _, m := range mcMappings {
						for _, mit := range mcMitigations {
							specs = append(specs, sim.RunSpec{Workload: w, Mapping: m, Mitigation: mit, TRH: trh})
						}
					}
				}
				out = append(out, batch{Opts: mcOptions(g, s), Specs: specs})
			}
		}
		return out
	case wlServe:
		return []batch{{Opts: serveOptions(), Specs: append(serveHitSpecs(), serveFreshSpecs()...)}}
	}
	return nil
}
