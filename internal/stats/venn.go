package stats

// Venn describes the two-set Venn partition of the paper's Figure 1:
// items reported only by the auditing methodology, items reported only by
// the vendor, and items reported by both.
type Venn struct {
	OnlyA int // exclusively in A (e.g. audit-only publishers)
	OnlyB int // exclusively in B (e.g. vendor-only publishers)
	Both  int // in both
}

// SizeA returns |A| = OnlyA + Both.
func (v Venn) SizeA() int { return v.OnlyA + v.Both }

// SizeB returns |B| = OnlyB + Both.
func (v Venn) SizeB() int { return v.OnlyB + v.Both }

// FractionMissedByB returns the fraction of A's items absent from B —
// the paper's headline "AdWords did not report 57% of publishers" metric,
// computed as OnlyA / |A|. It returns 0 when A is empty.
func (v Venn) FractionMissedByB() float64 {
	if v.SizeA() == 0 {
		return 0
	}
	return float64(v.OnlyA) / float64(v.SizeA())
}

// FractionMissedByA returns the fraction of B's items absent from A.
// In the paper this is the audit-side measurement loss (footnote: the
// methodology failed to log 16.5% of the publishers).
func (v Venn) FractionMissedByA() float64 {
	if v.SizeB() == 0 {
		return 0
	}
	return float64(v.OnlyB) / float64(v.SizeB())
}
