package main

import (
	"fmt"
	"time"

	"rubix/internal/core"
	"rubix/internal/cpu"
	"rubix/internal/dram"
	"rubix/internal/mapping"
	"rubix/internal/memctrl"
	"rubix/internal/mitigation"
	"rubix/internal/power"
	"rubix/internal/sim"
	"rubix/internal/workload"
)

// span names one timed boundary of the replica pipeline. Spans nest: a
// span's self time is its duration minus the part its child spans cover.
type span int

const (
	spanSched     span = iota // the (Now, ID) event loop, sim layer
	spanStep                  // cpu.Core.StepBatch
	spanNext                  // workload.Generator.Next
	spanAccess                // memctrl.Controller.AccessBatch (with the DRAM model)
	spanMap                   // mapping.FullMapper.MapBatch / Map
	spanNote                  // core.RubixD.NoteActivation
	spanMit                   // mitigation.Mitigator methods
	spanFinalize              // dram.Module.Finalize
	spanBuildWL               // sim.ResolveWorkload
	spanBuildMap              // sim.MapperFor
	spanBuildDRAM             // dram.New
	spanBuildMit              // mitigation.ByName
	spanBuildCtrl             // memctrl.New
	spanBuildCPU              // cpu.New
	spanAssemble              // Result assembly, sim layer
	nSpans
)

var spanNames = [nSpans]string{
	"sim.sched", "cpu.step", "workload.next", "memctrl_dram.access", "mapping.map",
	"core.rubixd.note", "mitigation", "dram.finalize", "workload.build", "mapping.build",
	"memctrl_dram.build", "mitigation.build", "memctrl_dram.build_ctrl", "cpu.build", "sim.assemble",
}

// tracer aggregates span durations in memory. It is single-threaded, like
// the pipeline it times.
type tracer struct {
	incl  [nSpans]int64 // ns inside the span, children included
	child [nSpans]int64 // ns of that covered by child spans
	calls [nSpans]int64
	stack [nSpans]span
	depth int
	lines int64 // lines translated by MapBatch/Map
}

func (t *tracer) begin(s span) time.Time {
	t.stack[t.depth] = s
	t.depth++
	return time.Now()
}

func (t *tracer) end(s span, start time.Time) {
	d := int64(time.Since(start))
	t.depth--
	t.incl[s] += d
	t.calls[s]++
	if t.depth > 0 {
		t.child[t.stack[t.depth-1]] += d
	}
}

func (t *tracer) self(s span) int64 { return t.incl[s] - t.child[s] }

// timedMapper times the forward translation calls the controller makes.
type timedMapper struct {
	t *tracer
	m mapping.FullMapper
}

func (m *timedMapper) Name() string { return m.m.Name() }

func (m *timedMapper) Map(line uint64) uint64 {
	s := m.t.begin(spanMap)
	p := m.m.Map(line)
	m.t.end(spanMap, s)
	m.t.lines++
	return p
}

func (m *timedMapper) MapBatch(lines, phys []uint64) {
	s := m.t.begin(spanMap)
	m.m.MapBatch(lines, phys)
	m.t.end(spanMap, s)
	m.t.lines += int64(len(lines))
}

func (m *timedMapper) Unmap(phys uint64) uint64        { return m.m.Unmap(phys) }
func (m *timedMapper) UnmapBatch(phys, lines []uint64) { m.m.UnmapBatch(phys, lines) }

// timedDynamic is timedMapper for a Rubix-D mapper. It implements
// memctrl.Dynamic so the controller still wires the remap engine in; a
// static mapper is wrapped in plain timedMapper so it is not mistaken for
// a dynamic one.
type timedDynamic struct {
	timedMapper
	d memctrl.Dynamic
}

func (m *timedDynamic) NoteActivation(phys uint64) (core.SwapOp, bool) {
	s := m.t.begin(spanNote)
	op, ok := m.d.NoteActivation(phys)
	m.t.end(spanNote, s)
	return op, ok
}

func (m *timedDynamic) Generation() uint64 { return m.d.Generation() }

func wrapMapper(t *tracer, fm mapping.FullMapper) mapping.FullMapper {
	tm := timedMapper{t: t, m: fm}
	if d, ok := fm.(memctrl.Dynamic); ok {
		return &timedDynamic{timedMapper: tm, d: d}
	}
	return &tm
}

// timedMitigator times every Mitigator method the controller calls.
type timedMitigator struct {
	t *tracer
	m mitigation.Mitigator
}

func (m *timedMitigator) Name() string        { return m.m.Name() }
func (m *timedMitigator) Mitigations() uint64 { return m.m.Mitigations() }

func (m *timedMitigator) TranslateRow(row uint64) uint64 {
	s := m.t.begin(spanMit)
	r := m.m.TranslateRow(row)
	m.t.end(spanMit, s)
	return r
}

func (m *timedMitigator) ReleaseTime(row uint64, arrival float64) float64 {
	s := m.t.begin(spanMit)
	r := m.m.ReleaseTime(row, arrival)
	m.t.end(spanMit, s)
	return r
}

func (m *timedMitigator) OnACT(row uint64, actStart float64) {
	s := m.t.begin(spanMit)
	m.m.OnACT(row, actStart)
	m.t.end(spanMit, s)
}

func (m *timedMitigator) ResetWindow() {
	s := m.t.begin(spanMit)
	m.m.ResetWindow()
	m.t.end(spanMit, s)
}

// timedGen times the workload generator's address stream.
type timedGen struct {
	t *tracer
	g workload.Generator
}

func (g *timedGen) Name() string  { return g.g.Name() }
func (g *timedGen) InBurst() bool { return g.g.InBurst() }

func (g *timedGen) Next() uint64 {
	s := g.t.begin(spanNext)
	a := g.g.Next()
	g.t.end(spanNext, s)
	return a
}

// replicaRun simulates one spec through a pipeline built here from the
// simulator's public constructors, with a span at every layer boundary.
// It mirrors sim.Run's serial path — same constructors, seeds and
// (Now, ID) event order — so its Result must equal sim.Run's (the traced
// run checks the digests). It returns the Result and the wall time of the
// whole run.
func replicaRun(t *tracer, opts sim.Options, spec sim.RunSpec) (*sim.Result, int64, error) {
	t0 := time.Now()
	g := opts.Geometry
	s := t.begin(spanBuildWL)
	profiles, err := sim.ResolveWorkload(spec.Workload, opts.Cores, g, opts.Seed)
	t.end(spanBuildWL, s)
	if err != nil {
		return nil, 0, err
	}
	s = t.begin(spanBuildMap)
	fm, err := sim.MapperFor(spec.Mapping, g, opts.Seed)
	t.end(spanBuildMap, s)
	if err != nil {
		return nil, 0, err
	}
	mapper := wrapMapper(t, fm)
	timing := dram.DDR4_2400()
	s = t.begin(spanBuildDRAM)
	mod := dram.New(dram.Config{Geometry: g, Timing: timing, TRH: spec.TRH, LineCensus: spec.LineCensus})
	t.end(spanBuildDRAM, s)
	s = t.begin(spanBuildMit)
	m, err := mitigation.ByName(spec.Mitigation, mod, spec.TRH, opts.Seed)
	t.end(spanBuildMit, s)
	if err != nil {
		return nil, 0, err
	}
	mit := &timedMitigator{t: t, m: m}
	coreCfg := cpu.DefaultConfig()
	s = t.begin(spanBuildCtrl)
	ctrl := memctrl.New(memctrl.Config{DRAM: mod, Map: mapper, Mit: mit, MapLatencyNs: mapLatencyNs(spec.Mapping, coreCfg.FreqGHz)})
	t.end(spanBuildCtrl, s)
	// The budget expression is sim.Options' own: 250M instructions x Scale.
	instr := uint64(250_000_000 * opts.Scale)
	s = t.begin(spanBuildCPU)
	cores := make([]*cpu.Core, len(profiles))
	for i, p := range profiles {
		p.Gen = &timedGen{t: t, g: p.Gen}
		cores[i] = cpu.New(i, coreCfg, p, instr, opts.Seed+uint64(i)*7919+1)
	}
	t.end(spanBuildCPU, s)

	access := func(lines []uint64, arrival float64) float64 {
		s := t.begin(spanAccess)
		c := ctrl.AccessBatch(lines, arrival)
		t.end(spanAccess, s)
		return c
	}
	s = t.begin(spanSched)
	h := newCoreHeap(cores)
	for len(h.cores) > 0 {
		c := h.cores[0]
		ss := t.begin(spanStep)
		c.StepBatch(access)
		t.end(spanStep, ss)
		if c.Done() {
			h.popMin()
		} else {
			h.siftDown(0)
		}
	}
	t.end(spanSched, s)

	s = t.begin(spanFinalize)
	stats := mod.Finalize()
	t.end(spanFinalize, s)

	s = t.begin(spanAssemble)
	res := &sim.Result{
		Mapping:     mapper.Name(),
		Mitigation:  mit.Name(),
		IPC:         make([]float64, len(cores)),
		DRAM:        stats,
		Mitigations: mit.Mitigations(),
		RemapSwaps:  ctrl.RemapSwaps(),
		Shards:      1,
	}
	for i, c := range cores {
		res.IPC[i] = c.IPC()
		res.MeanIPC += c.IPC()
		if c.Now > res.ElapsedNs {
			res.ElapsedNs = c.Now
		}
		res.WorkloadNames = append(res.WorkloadNames, c.WorkloadName())
	}
	res.MeanIPC /= float64(len(cores))
	res.PowerMW = power.DDR4DIMM16GB().Estimate(stats, res.ElapsedNs)
	res.Config = fmt.Sprintf("%s/%s/TRH=%d", res.Mapping, res.Mitigation, spec.TRH)
	t.end(spanAssemble, s)
	return res, int64(time.Since(t0)), nil
}

// mapLatencyNs is sim.Run's default translation latency: three core
// cycles for the K-Cipher of Rubix-S, one for every XOR-based mapping.
func mapLatencyNs(mapping string, freqGHz float64) float64 {
	if len(mapping) >= 6 && mapping[:6] == "rubixs" {
		return 3 / freqGHz
	}
	return 1 / freqGHz
}

// coreHeap orders cores by (Now, ID), the order sim's event loop advances
// them in: always the earliest core, ties to the lowest ID.
type coreHeap struct{ cores []*cpu.Core }

func newCoreHeap(cores []*cpu.Core) *coreHeap {
	h := &coreHeap{}
	for _, c := range cores {
		if !c.Done() {
			h.cores = append(h.cores, c)
		}
	}
	for i := len(h.cores)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
	return h
}

func (h *coreHeap) less(i, j int) bool {
	a, b := h.cores[i], h.cores[j]
	return a.Now < b.Now || (a.Now == b.Now && a.ID < b.ID)
}

func (h *coreHeap) siftDown(i int) {
	n := len(h.cores)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h.cores[i], h.cores[m] = h.cores[m], h.cores[i]
		i = m
	}
}

func (h *coreHeap) popMin() {
	n := len(h.cores) - 1
	h.cores[0] = h.cores[n]
	h.cores = h.cores[:n]
	if n > 0 {
		h.siftDown(0)
	}
}

// layerStats turns a tracer's totals over a set of replica runs into the
// simulator's per-layer metrics.
type layerStats struct {
	t         tracer
	runs      int
	accesses  uint64
	acts      uint64
	actions   uint64
	wallNs    int64 // traced replica wall time
	refWallNs int64 // the same specs through sim.Run, untraced
}

func (l *layerStats) add(r *sim.Result, wallNs, refWallNs int64) {
	l.runs++
	l.accesses += r.DRAM.Accesses
	l.acts += r.DRAM.DemandActs + r.DRAM.ExtraActs
	l.actions += r.Mitigations
	l.wallNs += wallNs
	l.refWallNs += refWallNs
}

// selfSum is the sum of every span's self time: the traced time the spans
// account for.
func (l *layerStats) selfSum() int64 {
	var n int64
	for s := span(0); s < nSpans; s++ {
		n += l.t.self(s)
	}
	return n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (l *layerStats) metrics(out map[string]float64) {
	t := &l.t
	acc := float64(l.accesses)
	out["sim.sched.self_ns_per_access"] = ratio(float64(t.self(spanSched)), acc)
	out["cpu.step.self_ns_per_access"] = ratio(float64(t.self(spanStep)), acc)
	out["workload.next.ns_per_access"] = ratio(float64(t.incl[spanNext]), acc)
	out["mapping.map.ns_per_line"] = ratio(float64(t.incl[spanMap]), float64(t.lines))
	out["mapping.lines_per_access"] = ratio(float64(t.lines), acc)
	out["core.rubixd.note_ns_per_act"] = ratio(float64(t.incl[spanNote]), float64(t.calls[spanNote]))
	out["memctrl_dram.self_ns_per_access"] = ratio(float64(t.self(spanAccess)), acc)
	out["dram.acts_per_access"] = ratio(float64(l.acts), acc)
	out["dram.finalize_ms"] = ratio(float64(t.incl[spanFinalize])/1e6, float64(l.runs))
	out["mitigation.ns_per_act"] = ratio(float64(t.incl[spanMit]), float64(l.acts))
	out["mitigation.actions_per_kact"] = ratio(float64(l.actions), float64(l.acts)/1000)
	out["trace.overhead_pct"] = 100 * (ratio(float64(l.wallNs), float64(l.refWallNs)) - 1)
	out["trace.unattributed_pct"] = 100 * ratio(float64(l.wallNs-l.selfSum()), float64(l.wallNs))
}

// table renders the span totals for the report: self time per span and its
// share of the traced wall time.
func (l *layerStats) table() string {
	var b []byte
	for s := span(0); s < nSpans; s++ {
		b = fmt.Appendf(b, "    %-26s self %9.3f ms  %5.1f%%  calls %d\n", spanNames[s],
			float64(l.t.self(s))/1e6, 100*ratio(float64(l.t.self(s)), float64(l.wallNs)), l.t.calls[s])
	}
	return string(b)
}
