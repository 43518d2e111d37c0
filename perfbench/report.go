package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// metricDef declares one reported metric. The end-to-end and per-layer
// lists must match BENCHMARK.json (TestMetricsMatchBenchmarkJSON).
type metricDef struct {
	Name, Unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sweep_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"minstr_per_s", "Minstr/s"},
	{"host_ns_per_access", "ns"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
}

var perLayer = []metricDef{
	{"sim.sched.self_ns_per_access", "ns"},
	{"cpu.step.self_ns_per_access", "ns"},
	{"workload.next.ns_per_access", "ns"},
	{"mapping.map.ns_per_line", "ns"},
	{"mapping.lines_per_access", "ratio"},
	{"core.rubixd.note_ns_per_act", "ns"},
	{"memctrl_dram.self_ns_per_access", "ns"},
	{"dram.acts_per_access", "ratio"},
	{"dram.finalize_ms", "ms"},
	{"mitigation.ns_per_act", "ns"},
	{"mitigation.actions_per_kact", "count"},
	{"sim.shard.wall_ratio", "ratio"},
	{"suite.run_ms_p50", "ms"},
	{"server.run.self_ms_p50", "ms"},
	{"server.batch.self_ms_p50", "ms"},
	{"store.get_us_p50", "us"},
	{"store.put_us_p50", "us"},
	{"store.hit_ratio", "ratio"},
	{"codec.decode_us", "us"},
	{"codec.encode_us", "us"},
	{"server.sims_per_spec", "ratio"},
	{"server.specs_per_batch", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.unattributed_pct", "%"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill copies the named values into r.Metrics, one per definition; a value
// missing from vals is a bug in the benchmark.
func (r *result) fill(defs []metricDef, vals map[string]float64) error {
	r.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s = %v", d.Name, v)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentiles is the ladder op_tail_ms picks from. Decades keep the
// chosen percentile stable while a run's op count drifts by a few tens of
// percent.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// tail reports the highest ladder percentile with at least ten samples
// strictly beyond it, the value at that percentile (the order statistic
// with that many samples above it), and the number of samples beyond.
func tail(xs []float64) (pct, value float64, beyond int) {
	n := len(xs)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range tailPercentiles {
		// Samples at or below; the epsilon keeps float error in p/100*n
		// (99.9% of 10000 is 9990.000000000002) from costing a sample.
		k := int(math.Ceil(p/100*float64(n) - 1e-6))
		if k < 1 {
			k = 1
		}
		if n-k >= 10 {
			return p, s[k-1], n - k
		}
	}
	// Fewer than 11 samples: report the maximum, with what lies beyond it.
	if n == 0 {
		return 100, math.NaN(), 0
	}
	return 100, s[n-1], 0
}

// hostInfo describes the machine and runtime a run measured.
func hostInfo() string {
	gogc := os.Getenv("GOGC")
	pct := debug.SetGCPercent(100)
	debug.SetGCPercent(pct)
	if gogc == "" {
		gogc = "unset"
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s GOGC=%s(gc percent %d) os=%s/%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gogc, pct,
		runtime.GOOS, runtime.GOARCH, cpuModel())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// resetPeakRSS returns the freed heap to the operating system and resets
// the process's peak resident set (VmHWM) to its current resident set, so
// that peakRSSMB then reads the peak since this call.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak resident set: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// printResult writes the human-readable report and then the result as the
// last line of w.
func printResult(w io.Writer, workload string, defs []metricDef, r result, notes map[string]string) error {
	fmt.Fprintf(w, "workload %s  host %s\n", workload, hostInfo())
	for _, d := range defs {
		m := r.Metrics[d.Name]
		fmt.Fprintf(w, "  %-34s %14.6g %-8s %s\n", d.Name, m.Value, d.Unit, notes[d.Name])
	}
	frac := float64(r.Failed) / float64(r.Attempted)
	fmt.Fprintf(w, "  %-34s %14.6g %-8s (%d failed of %d attempted)\n", "fail_frac", frac, "ratio", r.Failed, r.Attempted)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
