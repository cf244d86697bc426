package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVennOf(t *testing.T) {
	a := setOf([]string{"x", "y", "z"})
	b := setOf([]string{"y", "z", "w", "v"})
	v := VennOf(a, b)
	if v.OnlyA != 1 || v.OnlyB != 2 || v.Both != 2 {
		t.Fatalf("VennOf = %+v, want {1 2 2}", v)
	}
	if v.SizeA() != 3 || v.SizeB() != 4 || v.Union() != 5 {
		t.Fatalf("sizes wrong: %+v", v)
	}
}

func TestVennFractions(t *testing.T) {
	v := Venn{OnlyA: 57, OnlyB: 10, Both: 43}
	if got := v.FractionMissedByB(); math.Abs(got-0.57) > 1e-12 {
		t.Fatalf("FractionMissedByB = %v, want 0.57", got)
	}
	want := 10.0 / 53.0
	if got := v.FractionMissedByA(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("FractionMissedByA = %v, want %v", got, want)
	}
	if got := v.Jaccard(); math.Abs(got-43.0/110.0) > 1e-12 {
		t.Fatalf("Jaccard = %v", got)
	}
}

func TestVennEmptySets(t *testing.T) {
	v := VennOf(nil, nil)
	if v != (Venn{}) {
		t.Fatalf("VennOf(nil,nil) = %+v", v)
	}
	if v.FractionMissedByB() != 0 || v.FractionMissedByA() != 0 || v.Jaccard() != 0 {
		t.Fatal("empty Venn fractions must be 0")
	}
}

// Property: the Venn partition is exact — sizes recombine to the input
// set cardinalities, and the partition is symmetric under swapping.
func TestVennPartitionProperty(t *testing.T) {
	err := quick.Check(func(as, bs []string) bool {
		a, b := setOf(as), setOf(bs)
		v := VennOf(a, b)
		if v.SizeA() != len(a) || v.SizeB() != len(b) {
			return false
		}
		sw := VennOf(b, a)
		return sw.OnlyA == v.OnlyB && sw.OnlyB == v.OnlyA && sw.Both == v.Both
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// setOf builds the string set VennOf takes.
func setOf(items []string) map[string]struct{} {
	s := make(map[string]struct{}, len(items))
	for _, it := range items {
		s[it] = struct{}{}
	}
	return s
}
