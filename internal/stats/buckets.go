package stats

import (
	"fmt"
	"math"
)

// LogBuckets partitions the positive integers into logarithmic buckets
// [1, base), [base, base^2), ... as used by the paper's Figure 2 to bin
// publishers by Alexa rank. Values below 1 fall into bucket 0; values at
// or beyond the last boundary fall into the final overflow bucket.
type LogBuckets struct {
	base       float64
	boundaries []float64 // ascending upper bounds, exclusive
}

// NewLogBuckets returns buckets with the given base covering [1, max].
// It returns an error if base <= 1 or max < 1.
func NewLogBuckets(base float64, max float64) (*LogBuckets, error) {
	if base <= 1 {
		return nil, fmt.Errorf("stats: log bucket base must be > 1, got %v", base)
	}
	if max < 1 {
		return nil, fmt.Errorf("stats: log bucket max must be >= 1, got %v", max)
	}
	lb := &LogBuckets{base: base}
	for b := base; b/base < max; b *= base {
		lb.boundaries = append(lb.boundaries, b)
	}
	return lb, nil
}

// NumBuckets returns the number of buckets, including the overflow bucket.
func (lb *LogBuckets) NumBuckets() int { return len(lb.boundaries) + 1 }

// Index returns the bucket index for v.
func (lb *LogBuckets) Index(v float64) int {
	if v < 1 {
		return 0
	}
	// log-based jump, then linear fixup to dodge float edge cases.
	i := int(math.Log(v) / math.Log(lb.base))
	if i < 0 {
		i = 0
	}
	if i > len(lb.boundaries) {
		i = len(lb.boundaries)
	}
	for i > 0 && v < lb.boundaries[i-1] {
		i--
	}
	for i < len(lb.boundaries) && v >= lb.boundaries[i] {
		i++
	}
	return i
}

// Label returns a human-readable range label for bucket i, e.g. "[1, 10)".
func (lb *LogBuckets) Label(i int) string {
	lower := 1.0
	if i > 0 {
		lower = lb.boundaries[i-1]
	}
	if i >= len(lb.boundaries) {
		return fmt.Sprintf("[%s, inf)", compactNumber(lower))
	}
	return fmt.Sprintf("[%s, %s)", compactNumber(lower), compactNumber(lb.boundaries[i]))
}

func compactNumber(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%gB", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%gM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%gK", v/1e3)
	default:
		return fmt.Sprintf("%g", v)
	}
}

// Histogram counts observations in a LogBuckets partition.
type Histogram struct {
	Buckets *LogBuckets
	Counts  []int64
	Total   int64
}

// NewHistogram returns an empty histogram over lb.
func NewHistogram(lb *LogBuckets) *Histogram {
	return &Histogram{Buckets: lb, Counts: make([]int64, lb.NumBuckets())}
}

// Observe adds v to the histogram.
func (h *Histogram) Observe(v float64) {
	h.Counts[h.Buckets.Index(v)]++
	h.Total++
}

// ObserveN adds v to the histogram n times.
func (h *Histogram) ObserveN(v float64, n int64) {
	h.Counts[h.Buckets.Index(v)] += n
	h.Total += n
}

// Fraction returns the fraction of observations in bucket i, or 0 if the
// histogram is empty.
func (h *Histogram) Fraction(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.Total)
}
