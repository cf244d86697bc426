package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLogBucketsRejectsBadParams(t *testing.T) {
	if _, err := NewLogBuckets(1, 100); err == nil {
		t.Fatal("expected error for base=1")
	}
	if _, err := NewLogBuckets(10, 0.5); err == nil {
		t.Fatal("expected error for max<1")
	}
}

func TestLogBucketsIndexBase10(t *testing.T) {
	lb, err := NewLogBuckets(10, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0}, {0.5, 0}, {1, 0}, {9, 0}, {9.999, 0},
		{10, 1}, {99, 1},
		{100, 2}, {999, 2},
		{1000, 3},
		{50_000, 4},
		{999_999, 5},
		{1_000_000, 6},
		{9_999_999, 6},
		{10_000_000, 7},
		{1e12, 7}, // overflow bucket
	}
	for _, c := range cases {
		if got := lb.Index(c.v); got != c.want {
			t.Errorf("Index(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestLogBucketsBoundariesConsistent(t *testing.T) {
	err := quick.Check(func(raw uint32) bool {
		v := float64(raw%100_000_000) + 1
		lb, err := NewLogBuckets(10, 10_000_000)
		if err != nil {
			return false
		}
		i := lb.Index(v)
		if i < 0 || i >= lb.NumBuckets() {
			return false
		}
		// v must lie below the bucket's exclusive upper bound (none
		// for the overflow bucket)...
		if i < len(lb.boundaries) && v >= lb.boundaries[i] {
			return false
		}
		// ...and at or above the previous bucket's upper bound.
		if i > 0 && v < lb.boundaries[i-1] {
			return false
		}
		return true
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLogBucketsLabels(t *testing.T) {
	lb, err := NewLogBuckets(10, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got := lb.Label(0); got != "[1, 10)" {
		t.Fatalf("Label(0) = %q", got)
	}
	if got := lb.Label(4); got != "[10K, 100K)" {
		t.Fatalf("Label(4) = %q", got)
	}
	last := lb.NumBuckets() - 1
	if got := lb.Label(last); got != "[10M, inf)" {
		t.Fatalf("Label(%d) = %q", last, got)
	}
}

func TestHistogramFractionsSumToOne(t *testing.T) {
	lb, _ := NewLogBuckets(10, 1_000_000)
	h := NewHistogram(lb)
	r := NewRNG(4)
	for i := 0; i < 10000; i++ {
		h.Observe(r.Pareto(1, 0.8))
	}
	var sum float64
	for i := 0; i < lb.NumBuckets(); i++ {
		sum += h.Fraction(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("fractions sum to %v, want 1", sum)
	}
	if h.Total != 10000 {
		t.Fatalf("Total = %d, want 10000", h.Total)
	}
}

func TestHistogramObserveN(t *testing.T) {
	lb, _ := NewLogBuckets(10, 1000)
	h := NewHistogram(lb)
	h.ObserveN(50, 7)
	if h.Counts[lb.Index(50)] != 7 || h.Total != 7 {
		t.Fatalf("ObserveN miscounted: counts=%v total=%d", h.Counts, h.Total)
	}
}
