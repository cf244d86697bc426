package stats

import (
	"fmt"
	"math"
	"sort"
)

// SpearmanRho computes Spearman's rank correlation coefficient between
// two equal-length samples, with average ranks for ties. The paper's
// Figure 2 claim — higher CPM does NOT buy more popular publishers — is
// quantified as a non-positive rank correlation between campaign CPMs
// and their top-rank delivery shares.
func SpearmanRho(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: spearman inputs differ in length: %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, fmt.Errorf("stats: spearman needs at least 2 observations")
	}
	rx := ranks(xs)
	ry := ranks(ys)
	return pearson(rx, ry)
}

// ranks returns average ranks (1-based) of xs, resolving ties to the
// mean rank of the tied group.
func ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, len(xs))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank for positions i..j (1-based).
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

// pearson computes the Pearson correlation of two equal-length samples.
func pearson(xs, ys []float64) (float64, error) {
	n := float64(len(xs))
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, fmt.Errorf("stats: correlation undefined for constant input")
	}
	_ = n
	return sxy / math.Sqrt(sxx*syy), nil
}
