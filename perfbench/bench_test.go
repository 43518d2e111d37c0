package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"rubix/internal/geom"
	"rubix/internal/memctrl"
	"rubix/internal/metrics"
	"rubix/internal/sim"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricsMatchBenchmarkJSON pins the metric names: valid, unique, and
// the same lists, with the same units, as BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, list := range []struct {
		code []metricDef
		json []struct{ Name, Unit string }
	}{{endToEnd, bj.EndToEnd}, {perLayer, bj.PerLayer}} {
		if len(list.code) != len(list.json) {
			t.Fatalf("%d metrics in code, %d in BENCHMARK.json", len(list.code), len(list.json))
		}
		for i, d := range list.code {
			if !metricName.MatchString(d.Name) {
				t.Errorf("invalid metric name %q", d.Name)
			}
			if seen[d.Name] {
				t.Errorf("metric %q declared twice", d.Name)
			}
			seen[d.Name] = true
			if j := list.json[i]; j.Name != d.Name || j.Unit != d.Unit {
				t.Errorf("metric %d: code %s [%s], BENCHMARK.json %s [%s]", i, d.Name, d.Unit, j.Name, j.Unit)
			}
		}
	}
}

// TestTailRule pins op_tail_ms's percentile choice: the highest ladder
// percentile with at least ten samples beyond it.
func TestTailRule(t *testing.T) {
	cases := []struct {
		n      int
		pct    float64
		value  float64 // samples are 1..n
		beyond int
	}{
		{5, 100, 5, 0},   // nothing on the ladder leaves ten beyond: the maximum
		{11, 100, 11, 0}, // p50 leaves five
		{20, 50, 10, 10},
		{100, 90, 90, 10},
		{999, 90, 900, 99},
		{1000, 99, 990, 10},
		{10000, 99.9, 9990, 10},
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[len(xs)-1-i] = float64(i + 1) // unsorted input
		}
		pct, v, beyond := tail(xs)
		if pct != c.pct || v != c.value || beyond != c.beyond {
			t.Errorf("n=%d: tail = p%g %g (%d beyond), want p%g %g (%d beyond)", c.n, pct, v, beyond, c.pct, c.value, c.beyond)
		}
		if beyond > 0 && beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond p%g", c.n, beyond, pct)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestBusyNs checks the interval union the server's self times subtract:
// overlaps count once and only the part inside the window counts.
func TestBusyNs(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ns int) time.Time { return t0.Add(time.Duration(ns)) }
	ivs := []interval{{at(50), at(70)}, {at(0), at(30)}, {at(20), at(40)}, {at(90), at(200)}, {at(60), at(65)}}
	for _, c := range []struct {
		lo, hi int
		want   float64
	}{
		{0, 1000, 40 + 20 + 110},
		{10, 100, 30 + 20 + 10},
		{40, 50, 0},
		{300, 400, 0},
	} {
		if got := busyNs(ivs, at(c.lo), at(c.hi)); got != c.want {
			t.Errorf("busyNs over [%d, %d] = %g, want %g", c.lo, c.hi, got, c.want)
		}
	}
}

// TestServeRoundBalanced checks that every serve round's fresh specs are
// every mapping x mitigation pair once with each hot workload equally
// often, so rounds cost about the same whatever the seed.
func TestServeRoundBalanced(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		for r := 0; r < 3; r++ {
			for _, ops := range serveRound(seed, r) {
				pairs, workloads := map[[2]string]int{}, map[string]int{}
				for _, op := range ops {
					for _, s := range op.Specs {
						if s.TRH == serveFreshTRH {
							pairs[[2]string{s.Mapping, s.Mitigation}]++
							workloads[s.Workload]++
						}
					}
				}
				if len(pairs) != len(figMappings)*len(figMitigations) {
					t.Fatalf("seed %d round %d: %d fresh pairs", seed, r, len(pairs))
				}
				for w, n := range workloads {
					if n != len(pairs)/len(hotPool) {
						t.Fatalf("seed %d round %d: %s in %d fresh specs of %d", seed, r, w, n, len(pairs))
					}
				}
			}
		}
	}
}

// TestOpListSeeded checks that the op list is a pure function of the seed:
// the same seed gives the same list and a different seed a different one.
func TestOpListSeeded(t *testing.T) {
	for r := 0; r < 3; r++ {
		if !reflect.DeepEqual(figRound(7, r), figRound(7, r)) || !reflect.DeepEqual(mcRound(7, r), mcRound(7, r)) ||
			!reflect.DeepEqual(serveRound(7, r), serveRound(7, r)) {
			t.Fatalf("round %d: same seed, different op lists", r)
		}
		if reflect.DeepEqual(figRound(7, r), figRound(8, r)) || reflect.DeepEqual(mcRound(7, r), mcRound(8, r)) ||
			reflect.DeepEqual(serveRound(7, r), serveRound(8, r)) {
			t.Fatalf("round %d: seeds 7 and 8 give the same op list", r)
		}
	}
	if reflect.DeepEqual(figRound(7, 0), figRound(7, 1)) {
		t.Fatal("rounds 0 and 1 of one seed are identical")
	}
}

// TestGoldenCoversOpLists checks that every spec an op list can contain
// has a committed digest, and that serve rounds have the shape the
// server counters are checked against.
func TestGoldenCoversOpLists(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 40; seed++ {
		for r := 0; r < 3; r++ {
			for _, bs := range [][]batch{figRound(seed, r), mcRound(seed, r)} {
				for _, b := range bs {
					wl := wlFigSweep
					if b.Opts.Cores == 8 {
						wl = wlMultichannel
					}
					for _, s := range b.Specs {
						if _, ok := g[wl][goldenKey(b.Opts, s)]; !ok {
							t.Fatalf("%s: %s has no golden digest", wl, goldenKey(b.Opts, s))
						}
					}
				}
			}
			for _, ops := range serveRound(seed, r) {
				n := 0
				for _, op := range ops {
					n += len(op.Specs)
					if op.Run != (len(op.Specs) == 1) {
						t.Fatalf("op %+v: /run must carry exactly one spec", op)
					}
					for _, s := range op.Specs {
						if _, ok := g[wlServe][goldenKey(serveOptions(), s)]; !ok {
							t.Fatalf("serve: %s has no golden digest", goldenKey(serveOptions(), s))
						}
					}
				}
				if n != serveBatchOps*serveBatchSize+serveRunOps {
					t.Fatalf("serve connection carries %d specs", n)
				}
			}
		}
	}
}

// TestDigestCoversStatisticsOnly checks that the digest ignores how a run
// executed (shards, metrics) and sees what it simulated.
func TestDigestCoversStatisticsOnly(t *testing.T) {
	opts := sim.Options{Scale: 0.0005, Cores: 2, Seed: 3, SeedSet: true, Geometry: geom.DDR4_16GB()}
	cfg, err := simConfig(opts, sim.RunSpec{Workload: "mcf", Mapping: "coffeelake", Mitigation: "aqua", TRH: trh}, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := digest(res)
	alt := *res
	alt.Shards = 4
	alt.Metrics = &metrics.Snapshot{}
	if digest(&alt) != d {
		t.Error("digest changed with Shards/Metrics")
	}
	alt.IPC = append([]float64(nil), res.IPC...)
	alt.IPC[0] = math.Nextafter(alt.IPC[0], 2)
	if digest(&alt) == d {
		t.Error("digest missed a one-ulp IPC change")
	}
}

// TestWrapMapperKeepsDynamic checks that the timing wrapper keeps
// memctrl's Rubix-D detection and does not give it to static mappers.
func TestWrapMapperKeepsDynamic(t *testing.T) {
	g := geom.DDR4_16GB()
	for name, dyn := range map[string]bool{"rubixd-gs2": true, "rubixs-gs1": false, "coffeelake": false} {
		fm, err := sim.MapperFor(name, g, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := wrapMapper(&tracer{}, fm).(memctrl.Dynamic); ok != dyn {
			t.Errorf("%s: wrapped mapper Dynamic = %v, want %v", name, ok, dyn)
		}
	}
}

// TestTracedReplica runs a tiny config through the traced replica: its
// statistics must equal sim.Run's, and the span self times must add up to
// the traced total within the reported trace.unattributed_pct.
func TestTracedReplica(t *testing.T) {
	opts := sim.Options{Scale: 0.0005, Cores: 2, Seed: 9, SeedSet: true, Geometry: geom.DDR4_16GB()}
	ls := &layerStats{}
	for _, spec := range []sim.RunSpec{
		{Workload: "mcf", Mapping: "coffeelake", Mitigation: "none", TRH: trh},
		{Workload: "gcc", Mapping: "rubixs-gs1", Mitigation: "aqua", TRH: trh},
		{Workload: "mix6", Mapping: "rubixd-gs2", Mitigation: "srs", TRH: trh},
		{Workload: "roms", Mapping: "skylake", Mitigation: "blockhammer", TRH: trh, LineCensus: true},
	} {
		ref, refNs, err := timedSimRun(opts, spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		rep, repNs, err := replicaRun(&ls.t, opts, spec)
		if err != nil {
			t.Fatal(err)
		}
		if digest(rep) != digest(ref) {
			t.Fatalf("%s: replica statistics differ from sim.Run", spec)
		}
		ls.add(rep, repNs, refNs)
	}
	if ls.t.depth != 0 {
		t.Fatalf("span stack depth %d after the runs", ls.t.depth)
	}
	if ls.t.calls[spanNote] == 0 || ls.t.lines == 0 {
		t.Fatal("Rubix-D remap engine or mapping never traced")
	}
	vals := map[string]float64{}
	ls.metrics(vals)
	un := vals["trace.unattributed_pct"]
	sum := float64(ls.selfSum())
	total := float64(ls.wallNs)
	if sum > total || un < 0 || un > 5 {
		t.Fatalf("self times %g ns of traced %g ns; unattributed %.3f%%", sum, total, un)
	}
	if got := 100 * (total - sum) / total; math.Abs(got-un) > 1e-9 {
		t.Fatalf("self times leave %.6f%% unattributed, reported %.6f%%", got, un)
	}
}
