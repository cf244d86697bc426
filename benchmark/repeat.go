package main

import (
	"fmt"
	"sort"
)

// quartiles mirrors Python's statistics.quantiles(xs, n=4) — the
// default "exclusive" method, which extrapolates past the ends of a
// short sample — because that is what the driver computes its spreads
// with. It needs at least two values.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// runRepeat is the repeatability tool: n sets of the selected
// workloads, set k on seed+k as the driver varies it, then for every
// end-to-end metric its median, quartiles and spread (interquartile
// range over median) beside its bound. A spread over the bound means
// the benchmark cannot resolve a regression of that size on this
// machine: it is reported as unresolved and the exit status is non-zero.
func runRepeat(o options, run []workload, n int) error {
	values := map[string][][]float64{} // workload → metric index → one value per set
	for k := 0; k < n; k++ {
		so := o
		so.seed = o.seed + int64(k)
		for _, w := range run {
			r, err := runWorkload(so, w)
			if err != nil {
				return fmt.Errorf("%s (set %d, seed %d): %w", w.name, k+1, so.seed, err)
			}
			if r.failed > 0 {
				return fmt.Errorf("%s (set %d, seed %d): %d of %d operations failed", w.name, k+1, so.seed, r.failed, r.attempted)
			}
			if values[w.name] == nil {
				values[w.name] = make([][]float64, len(endToEnd))
			}
			for i, v := range r.endToEnd() {
				values[w.name][i] = append(values[w.name][i], v)
			}
			fmt.Printf("set %d/%d %s done\n", k+1, n, w.name)
		}
	}
	unresolved := 0
	for _, w := range run {
		fmt.Printf("\n%s over %d sets (seeds %d..%d)\n", w.name, n, o.seed, o.seed+int64(n)-1)
		fmt.Printf("  %-20s %14s %14s %14s %8s %7s\n", "metric", "median", "q1", "q3", "spread", "bound")
		for i, m := range endToEnd {
			q := quartiles(values[w.name][i])
			spread := (q[2] - q[0]) / q[1]
			verdict := "steady"
			switch {
			case m.name == "setup_s":
				verdict = "not gated on spread"
			case spread > m.bound:
				verdict = "UNRESOLVED: spread over bound"
				unresolved++
			case spread > m.bound/3:
				verdict = "within bound, over a third of it"
			}
			fmt.Printf("  %-20s %14.4f %14.4f %14.4f %7.2f%% %6.0f%%  %s\n", m.name, q[1], q[0], q[2], spread*100, m.bound*100, verdict)
		}
	}
	if unresolved > 0 {
		return fmt.Errorf("%d metric/workload pairs are unresolved at their bounds", unresolved)
	}
	return nil
}
