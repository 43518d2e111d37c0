package sim

import (
	"strings"
	"testing"
)

// tinySuite runs experiments at a very small scale over two workloads so the
// runner plumbing is exercised quickly.
func tinySuite() *Suite {
	return NewSuite(Options{
		Scale:     0.01,
		Workloads: []string{"mcf", "xz"},
		Mixes:     []int{1},
		Seed:      11,
	})
}

func TestTable2Runner(t *testing.T) {
	s := tinySuite()
	rows, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.UniqueRows <= 0 {
			t.Errorf("%s: no unique rows", r.Workload)
		}
		if r.MPKI <= 0 {
			t.Errorf("%s: missing MPKI", r.Workload)
		}
	}
	out := FormatTable2(rows)
	if !strings.Contains(out, "mcf") || !strings.Contains(out, "average") {
		t.Fatalf("formatting missing rows:\n%s", out)
	}
}

func TestHotRowsRunner(t *testing.T) {
	s := tinySuite()
	maps := []string{"coffeelake", "rubixs-gs4"}
	rows, err := s.HotRows(maps)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if len(r.Counts) != 2 {
			t.Fatalf("%s: %d counts", r.Workload, len(r.Counts))
		}
	}
	out := FormatHotRows("t", maps, rows)
	if !strings.Contains(out, "mean") {
		t.Fatal("formatting missing mean row")
	}
}

func TestPerfRunnerIncludesMixes(t *testing.T) {
	s := tinySuite()
	rows, err := s.PerfAtTRH("aqua", 128, []string{"rubixs-gs4"})
	if err != nil {
		t.Fatal(err)
	}
	// 2 SPEC workloads + 1 mix.
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (incl. mix1)", len(rows))
	}
	found := false
	for _, r := range rows {
		if r.Workload == "mix1" {
			found = true
		}
		for _, v := range r.Perf {
			if v <= 0 || v > 2 {
				t.Errorf("%s: normalized perf %v implausible", r.Workload, v)
			}
		}
	}
	if !found {
		t.Fatal("mix1 missing from performance rows")
	}
}

func TestGangSweepRunner(t *testing.T) {
	s := tinySuite()
	rows, err := s.GangSweep([]string{"rubixs-gs4"}, []string{"none", "aqua"}, 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.HitRate <= 0 || r.HitRate >= 1 {
			t.Errorf("%s/%s: hit rate %v", r.Mapping, r.Mitigation, r.HitRate)
		}
		if r.PowerMW < 1000 {
			t.Errorf("%s/%s: power %v", r.Mapping, r.Mitigation, r.PowerMW)
		}
	}
	out := FormatGangSweep("t", rows)
	if !strings.Contains(out, "rubixs-gs4") {
		t.Fatal("formatting broken")
	}
}

func TestTable3Runner(t *testing.T) {
	// Table 3 needs hot rows with a line census; mcf at fuller scale.
	s := NewSuite(Options{Scale: 0.15, Workloads: []string{"mcf"}, Mixes: []int{}, Seed: 3})
	rows, err := s.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Skip("mcf produced <100 hot rows at this scale")
	}
	r := rows[0]
	total := r.Pct1to32 + r.Pct32to64 + r.Pct64to128
	if total < 99 || total > 101 {
		t.Fatalf("bucket percentages sum to %v", total)
	}
	// The paper's key observation: hot rows draw activations from MANY
	// lines (avg 56 of 128); our synthetic mcf should also be multi-line.
	if r.AvgLines < 8 {
		t.Fatalf("avg activating lines %v: hot rows should be multi-line", r.AvgLines)
	}
}

func TestRemapRateRunner(t *testing.T) {
	s := NewSuite(Options{Scale: 0.05, Workloads: []string{"lbm"}, Mixes: []int{}, Seed: 5})
	rows, err := s.RemapRate(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Swaps == 0 {
		t.Fatal("no swaps recorded")
	}
	// §5.4: ~1.5% extra activations at RR=1% (half of 1% episodes swap,
	// each swap costs 3 ACTs).
	if r.ExtraActPct < 0.5 || r.ExtraActPct > 4 {
		t.Fatalf("extra ACT overhead %.2f%%, want ~1.5%%", r.ExtraActPct)
	}
}

func TestFig3RunnerShape(t *testing.T) {
	s := NewSuite(Options{Scale: 0.02, Workloads: []string{"mcf"}, Mixes: []int{}, Seed: 13})
	rows, err := s.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 { // 3 mitigations x 4 thresholds
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	// Within each mitigation, performance must not IMPROVE as the
	// threshold drops (mitigations only get busier).
	byMit := map[string][]Fig3Row{}
	for _, r := range rows {
		byMit[r.Mitigation] = append(byMit[r.Mitigation], r)
	}
	for mit, rs := range byMit {
		// rs is ordered 1024, 512, 256, 128.
		if rs[len(rs)-1].CoffeeLake > rs[0].CoffeeLake*1.05 {
			t.Errorf("%s: perf at TRH=128 (%v) better than at 1024 (%v)",
				mit, rs[len(rs)-1].CoffeeLake, rs[0].CoffeeLake)
		}
	}
	if out := FormatFig3(rows); !strings.Contains(out, "blockhammer") {
		t.Fatal("formatting broken")
	}
}

func TestSortRowsByHotness(t *testing.T) {
	rows := []Table2Row{{Workload: "a", Hot64: 1}, {Workload: "b", Hot64: 9}, {Workload: "c", Hot64: 5}}
	SortRowsByHotness(rows)
	if rows[0].Workload != "b" || rows[2].Workload != "a" {
		t.Fatalf("sorted order wrong: %v", rows)
	}
}
