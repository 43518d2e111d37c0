package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steadiness runs the workload k times, each in a child process with its
// own seed, and prints every end-to-end metric's median, quartiles, the
// quartile distance as a share of the median, and the min-max range.
func steadiness(workload string, seed uint64, seconds float64, k int) error {
	if k < 2 {
		return fmt.Errorf("--steady needs at least 2 runs")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	vals := map[string][]float64{}
	for i := 0; i < k; i++ {
		s := seed + uint64(i)
		var out bytes.Buffer
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var r result
		if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		fmt.Printf("seed %d:", s)
		for _, d := range endToEnd {
			v := r.Metrics[d.Name].Value
			vals[d.Name] = append(vals[d.Name], v)
			fmt.Printf(" %s=%.4g", d.Name, v)
		}
		fmt.Println()
	}
	fmt.Printf("%s over %d seeds from %d, --seconds %g; host %s\n", workload, k, seed, seconds, hostInfo())
	fmt.Printf("  %-20s %12s %12s %12s %9s %9s\n", "metric", "median", "q1", "q3", "iqr/med", "range/med")
	for _, d := range endToEnd {
		xs := vals[d.Name]
		q1, q2, q3 := quartiles(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = min(lo, x), max(hi, x)
		}
		fmt.Printf("  %-20s %12.5g %12.5g %12.5g %8.1f%% %8.1f%%\n", d.Name, q2, q1, q3, 100*(q3-q1)/q2, 100*(hi-lo)/q2)
	}
	return nil
}

// quartiles returns the quartiles exactly as Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method), so
// spreads read the same as a check made with it. xs needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld, m := len(s), len(s)+1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}
