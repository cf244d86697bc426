package stats

import (
	"math"
	"sort"
)

// Median returns the median of xs, interpolating between the two middle
// elements for even lengths. It returns NaN for an empty slice. xs is not
// modified.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-quantile of xs (0 <= q <= 1) using linear
// interpolation between order statistics (type-7 estimator, the R and
// NumPy default). It returns NaN for an empty slice and clamps q to [0,1].
// xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// QuantileSorted is like Quantile but requires xs to already be sorted
// ascending, avoiding the copy and sort.
func QuantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return quantileSorted(xs, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs, or NaN if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Summary holds the five-number summary plus mean of a sample.
type Summary struct {
	N                int
	Min, P25, Median float64
	P75, Max         float64
	Mean             float64
}

// Summarize computes a Summary of xs (Zero value for empty input),
// leaving xs as it is. The mean is taken over xs in element order —
// float addition is order-sensitive — the rest over a sorted copy.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return Summary{
		N:      len(sorted),
		Min:    sorted[0],
		P25:    quantileSorted(sorted, 0.25),
		Median: quantileSorted(sorted, 0.5),
		P75:    quantileSorted(sorted, 0.75),
		Max:    sorted[len(sorted)-1],
		Mean:   Mean(xs),
	}
}
