package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVennFractions(t *testing.T) {
	v := Venn{OnlyA: 57, OnlyB: 10, Both: 43}
	if got := v.FractionMissedByB(); math.Abs(got-0.57) > 1e-12 {
		t.Fatalf("FractionMissedByB = %v, want 0.57", got)
	}
	want := 10.0 / 53.0
	if got := v.FractionMissedByA(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("FractionMissedByA = %v, want %v", got, want)
	}
}

func TestVennEmptySets(t *testing.T) {
	var v Venn
	if v.SizeA() != 0 || v.SizeB() != 0 {
		t.Fatalf("empty Venn sizes: %+v", v)
	}
	if v.FractionMissedByB() != 0 || v.FractionMissedByA() != 0 {
		t.Fatal("empty Venn fractions must be 0")
	}
}

// Property: the partition is exact — the three regions recombine to
// the two set sizes and their union — symmetric under swapping the
// sets, and its fractions are fractions.
func TestVennPartitionProperty(t *testing.T) {
	err := quick.Check(func(onlyA, onlyB, both uint16) bool {
		v := Venn{OnlyA: int(onlyA), OnlyB: int(onlyB), Both: int(both)}
		if v.SizeA()+v.SizeB()-v.Both != v.OnlyA+v.OnlyB+v.Both || v.SizeA()-v.Both != v.OnlyA || v.SizeB()-v.Both != v.OnlyB {
			return false
		}
		sw := Venn{OnlyA: v.OnlyB, OnlyB: v.OnlyA, Both: v.Both}
		if sw.SizeA() != v.SizeB() || sw.FractionMissedByB() != v.FractionMissedByA() {
			return false
		}
		f := v.FractionMissedByB()
		return f >= 0 && f <= 1
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}
