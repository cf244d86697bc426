package audit

import (
	"slices"
	"sort"

	"adaudit/internal/adnet"
	"adaudit/internal/stats"
)

// BrandSafetyResult is the Figure 1 analysis: the Venn partition of
// publishers observed by the audit vs. reported by the vendor, plus the
// anonymous-inventory accounting that rules out "it's all
// anonymous.google" as an explanation for the gap.
type BrandSafetyResult struct {
	// CampaignID is the audited campaign, or "" for the aggregate.
	CampaignID string
	// Venn partitions publishers: A = audit-observed, B =
	// vendor-reported (non-anonymous rows).
	Venn stats.Venn
	// AuditOnly lists publishers the audit saw but the vendor never
	// reported — the set an advertiser needs for brand-safety
	// blacklisting and cannot currently get.
	AuditOnly []string
	// VendorOnly lists publishers the vendor reported but the audit
	// missed (the methodology's own §3.1 loss).
	VendorOnly []string
	// AnonymousImpressions is the impression count the vendor lumped
	// under "anonymous.google".
	AnonymousImpressions int64
	// UnsafeUnreported lists audit-only publishers whose metadata marks
	// them brand-unsafe: concrete brand-safety exposure the vendor's
	// report hides.
	UnsafeUnreported []string
}

// FractionUnreported is the paper's headline metric: the share of
// audit-observed publishers absent from the vendor report (57%
// aggregate, up to 75% for General-005).
func (r BrandSafetyResult) FractionUnreported() float64 {
	return r.Venn.FractionMissedByB()
}

// FractionAuditMissed is the audit-side loss: the share of
// vendor-reported publishers the beacon never logged (the paper's
// footnote-2 16.5%).
func (r BrandSafetyResult) FractionAuditMissed() float64 {
	return r.Venn.FractionMissedByA()
}

// BrandSafety compares one campaign's audit-observed publishers with
// its vendor report.
func (a *Auditor) BrandSafety(campaignID string, report *adnet.VendorReport) BrandSafetyResult {
	s := a.fill(campaignID)
	defer release(s)
	v := a.resolve(s, nil)
	defer viewPool.Put(v)
	return s.brandSafety(campaignID, v.facts, report)
}

// BrandSafetyAggregate pools every campaign's publishers and reports,
// reproducing Figure 1's all-campaigns diagram.
func (a *Auditor) BrandSafetyAggregate(reports map[string]*adnet.VendorReport) BrandSafetyResult {
	s := a.fill("")
	defer release(s)
	v := a.resolve(s, nil)
	defer viewPool.Put(v)
	sc := scratchPool.Get().(*foldScratch)
	defer scratchPool.Put(sc)
	vn := sc.venn(&s.cols.Pubs)
	for _, rep := range reports {
		vn.mark(rep)
	}
	return vn.result("", v.facts)
}

// brandSafety is the Figure 1 fold for one campaign: the audited set is
// the state's publisher dictionary, facts its resolved view (all zero
// without a metadata source, which disables UnsafeUnreported).
func (s *State) brandSafety(campaignID string, facts []pubFacts, report *adnet.VendorReport) BrandSafetyResult {
	sc := scratchPool.Get().(*foldScratch)
	defer scratchPool.Put(sc)
	vn := sc.venn(&s.cols.Pubs)
	vn.mark(report)
	return vn.result(campaignID, facts)
}

// aggregateBrandSafety is Figure 1's all-campaigns diagram: the union
// of the states' publishers against the union of the inputs' reports
// (one per campaign ID, the last). The union dictionary and its view
// are scratch. A publisher's facts are those of the first state seen
// holding it; only a state no input names has no view (views[i] is
// inputs[i]'s), and its publishers alone are looked up here.
func aggregateBrandSafety(states map[string]*State, meta MetadataSource, inputs []CampaignInput, views []*pubView) BrandSafetyResult {
	byID := make(map[string]int, len(inputs))
	for i, in := range inputs {
		byID[in.ID] = i
	}
	sc := scratchPool.Get().(*foldScratch)
	defer scratchPool.Put(sc)
	union := &sc.union
	defer union.reset() // the keys are the states' strings: pin none of them
	// Sized up front for every state's publishers, the most the union
	// can hold, rather than grown by append.
	n := 0
	for _, s := range states {
		n += len(s.cols.Pubs.keys)
	}
	all := viewPool.Get().(*pubView)
	defer viewPool.Put(all)
	all.facts = slices.Grow(all.facts[:0], n)
	for id, s := range states {
		var view *pubView
		if i, ok := byID[id]; ok {
			view = views[i]
		}
		for pid, p := range s.cols.Pubs.keys {
			if union.intern(p) < int32(len(all.facts)) {
				continue // met in an earlier state
			}
			var f pubFacts
			if view != nil {
				f = view.facts[pid]
			} else if meta != nil {
				m, ok := meta.PublisherMeta(p)
				f.unsafe = ok && m.Unsafe
			}
			all.facts = append(all.facts, f)
		}
	}
	vn := sc.venn(union)
	for _, i := range byID {
		vn.mark(inputs[i].Report)
	}
	return vn.result("", all.facts)
}

// venn partitions a publisher dictionary — A, the audited set — against
// vendor report rows — B — by marking ids. Rows are keyed by (publisher,
// seller), so one domain may come up many times: an audited one is
// counted when first marked, the others are deduplicated once sorted.
type venn struct {
	pubs       *dict
	marked     []bool   // publisher id -> some row names it
	vendorOnly []string // rows naming no audited publisher, duplicates included
	both       int
	anon       int64
}

// venn starts a partition of pubs; the marks are sc's.
func (sc *foldScratch) venn(pubs *dict) venn {
	n := len(pubs.keys)
	sc.marks = slices.Grow(sc.marks[:0], n)[:n]
	clear(sc.marks)
	return venn{pubs: pubs, marked: sc.marks}
}

func (v *venn) mark(report *adnet.VendorReport) {
	for i := range report.Rows {
		p := report.Rows[i].Publisher
		if p == adnet.AnonymousPublisher {
			continue
		}
		if id, audited := v.pubs.ids[p]; !audited {
			v.vendorOnly = append(v.vendorOnly, p)
		} else if !v.marked[id] {
			v.marked[id] = true
			v.both++
		}
	}
	v.anon += report.AnonymousImpressions()
}

// result emits the partition: one pass in dictionary order for the
// audit-only side, facts[id].unsafe deciding UnsafeUnreported.
func (v *venn) result(campaignID string, facts []pubFacts) BrandSafetyResult {
	sort.Strings(v.vendorOnly)
	res := BrandSafetyResult{
		CampaignID:           campaignID,
		VendorOnly:           slices.Compact(v.vendorOnly),
		AnonymousImpressions: v.anon,
	}
	res.Venn = stats.Venn{OnlyA: len(v.pubs.keys) - v.both, OnlyB: len(res.VendorOnly), Both: v.both}
	if res.Venn.OnlyA > 0 {
		res.AuditOnly = make([]string, 0, res.Venn.OnlyA)
	}
	for id, p := range v.pubs.keys {
		if v.marked[id] {
			continue
		}
		res.AuditOnly = append(res.AuditOnly, p)
		if facts[id].unsafe {
			res.UnsafeUnreported = append(res.UnsafeUnreported, p)
		}
	}
	sort.Strings(res.AuditOnly)
	sort.Strings(res.UnsafeUnreported)
	return res
}
