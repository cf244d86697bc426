package audit

import (
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
	return s.BrandSafety(campaignID, a.Meta, report)
}

// BrandSafetyAggregate pools every campaign's publishers and reports,
// reproducing Figure 1's all-campaigns diagram.
func (a *Auditor) BrandSafetyAggregate(reports map[string]*adnet.VendorReport) BrandSafetyResult {
	s := a.fill("")
	defer release(s)
	return AggregateBrandSafety(map[string]*State{"": s}, a.Meta, reports)
}

// BrandSafety is the Figure 1 fold for one campaign: the audited set is
// the state's publisher dictionary. meta may be nil, disabling the
// UnsafeUnreported breakdown.
func (s *State) BrandSafety(campaignID string, meta MetadataSource, report *adnet.VendorReport) BrandSafetyResult {
	return brandSafety(meta, campaignID, s.cols.Pubs.ids, stats.SetOf(report.ReportedPublishers()), report.AnonymousImpressions())
}

// AggregateBrandSafety is Figure 1's all-campaigns diagram: the union
// of the states' publishers against the union of the reports.
func AggregateBrandSafety(states map[string]*State, meta MetadataSource, reports map[string]*adnet.VendorReport) BrandSafetyResult {
	n := 0
	for _, s := range states {
		n += len(s.cols.Pubs.keys)
	}
	audited := make(map[string]struct{}, n) // an upper bound: one allocation, no growth
	for _, s := range states {
		for _, p := range s.cols.Pubs.keys {
			audited[p] = struct{}{}
		}
	}
	reported := map[string]struct{}{}
	var anon int64
	for _, rep := range reports {
		for _, p := range rep.ReportedPublishers() {
			reported[p] = struct{}{}
		}
		anon += rep.AnonymousImpressions()
	}
	return brandSafety(meta, "", audited, reported, anon)
}

// brandSafety partitions the audited and reported publisher sets.
// Neither set is retained or mutated.
func brandSafety[V any](meta MetadataSource, campaignID string, audited map[string]V, reported map[string]struct{}, anon int64) BrandSafetyResult {
	res := BrandSafetyResult{CampaignID: campaignID, AnonymousImpressions: anon}
	for p := range audited {
		if _, ok := reported[p]; ok {
			res.Venn.Both++
			continue
		}
		res.Venn.OnlyA++
		res.AuditOnly = append(res.AuditOnly, p)
		if meta != nil {
			if m, ok := meta.PublisherMeta(p); ok && m.Unsafe {
				res.UnsafeUnreported = append(res.UnsafeUnreported, p)
			}
		}
	}
	for p := range reported {
		if _, ok := audited[p]; !ok {
			res.Venn.OnlyB++
			res.VendorOnly = append(res.VendorOnly, p)
		}
	}
	sort.Strings(res.AuditOnly)
	sort.Strings(res.VendorOnly)
	sort.Strings(res.UnsafeUnreported)
	return res
}
