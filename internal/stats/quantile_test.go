package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMedianOdd(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("Median = %v, want 2", got)
	}
}

func TestMedianEvenInterpolates(t *testing.T) {
	if got := Median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Median = %v, want 2.5", got)
	}
}

func TestMedianEmpty(t *testing.T) {
	if got := Median(nil); !math.IsNaN(got) {
		t.Fatalf("Median(nil) = %v, want NaN", got)
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 4}
	Median(xs)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 4 {
		t.Fatalf("Median mutated input: %v", xs)
	}
}

func TestQuantileEndpoints(t *testing.T) {
	xs := []float64{10, 30, 20}
	if got := Quantile(xs, 0); got != 10 {
		t.Fatalf("Q(0) = %v, want 10", got)
	}
	if got := Quantile(xs, 1); got != 30 {
		t.Fatalf("Q(1) = %v, want 30", got)
	}
}

func TestQuantileClamps(t *testing.T) {
	xs := []float64{1, 2}
	if got := Quantile(xs, -3); got != 1 {
		t.Fatalf("Q(-3) = %v, want 1", got)
	}
	if got := Quantile(xs, 7); got != 2 {
		t.Fatalf("Q(7) = %v, want 2", got)
	}
}

// Property: the median always lies between min and max, and is monotone in q.
func TestQuantileProperties(t *testing.T) {
	err := quick.Check(func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		min, max := sorted[0], sorted[len(sorted)-1]
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
			v := Quantile(xs, q)
			if v < min || v > max {
				return false
			}
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuantileSortedMatchesQuantile(t *testing.T) {
	err := quick.Check(func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, q := range []float64{0.2, 0.5, 0.8} {
			if Quantile(xs, q) != QuantileSorted(sorted, q) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	if got := Mean(nil); !math.IsNaN(got) {
		t.Fatalf("Mean(nil) = %v, want NaN", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Mean != 3 {
		t.Fatalf("unexpected summary: %+v", s)
	}
	if s.P25 != 2 || s.P75 != 4 {
		t.Fatalf("unexpected quartiles: %+v", s)
	}
	empty := Summarize(nil)
	if empty.N != 0 {
		t.Fatalf("Summarize(nil).N = %d, want 0", empty.N)
	}
}
