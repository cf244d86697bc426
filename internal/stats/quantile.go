package stats

import (
	"math"
	"sort"
	"time"
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

// MedianDurations returns the median of ds. It returns 0 for an empty
// slice. ds is not modified.
func MedianDurations(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(Median(xs))
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

// StdDev returns the sample standard deviation of xs (denominator n-1).
// It returns 0 for fewer than two samples.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
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
