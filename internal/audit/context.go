package audit

import (
	"fmt"

	"adaudit/internal/adnet"
)

// ContextResult is the Table 2 analysis: the fraction of impressions
// delivered to contextually meaningful publishers, as measured by the
// audit vs. claimed by the vendor.
type ContextResult struct {
	CampaignID string
	// AuditImpressions is the number of logged impressions analysed.
	AuditImpressions int
	// MeaningfulImpressions is how many of them rendered on a publisher
	// whose keywords match the campaign's or whose topics are
	// semantically similar (Leacock–Chodorow) to a campaign keyword.
	MeaningfulImpressions int
	// UnknownMeta counts impressions whose publisher has no metadata;
	// they count as not meaningful, as in the paper (publishers with no
	// assigned keywords cannot match).
	UnknownMeta int
	// VendorClaimed and VendorTotal are the vendor's contextual count
	// and its denominator (all delivered impressions).
	VendorClaimed int64
	VendorTotal   int64
}

// AuditFraction is the audit-measured contextually-meaningful share.
func (r ContextResult) AuditFraction() float64 {
	if r.AuditImpressions == 0 {
		return 0
	}
	return float64(r.MeaningfulImpressions) / float64(r.AuditImpressions)
}

// VendorFraction is the vendor-claimed contextually-delivered share.
func (r ContextResult) VendorFraction() float64 {
	if r.VendorTotal == 0 {
		return 0
	}
	return float64(r.VendorClaimed) / float64(r.VendorTotal)
}

// Context runs the Table 2 analysis for one campaign. keywords are the
// campaign's targeting keywords; report may be nil when only the audit
// side is wanted.
func (a *Auditor) Context(campaignID string, keywords []string, report *adnet.VendorReport) (ContextResult, error) {
	s := a.fill(campaignID)
	defer release(s)
	return a.ContextOf(s, nil, campaignID, keywords, report)
}

// ContextOf is the Table 2 analysis of one campaign's state: its
// publishers resolved against the keywords, through kept (see
// ReportStates), then the fold.
func (a *Auditor) ContextOf(s *State, kept *Views, campaignID string, keywords []string, report *adnet.VendorReport) (ContextResult, error) {
	v := a.view(kept, campaignID, s, keywords)
	defer kept.done(v)
	return a.contextOf(s, v.facts, campaignID, report)
}

// contextOf is the Table 2 fold. Relevance is a property of the
// publisher, not the impression, so each publisher's resolved verdict
// is weighed by its impression count.
func (a *Auditor) contextOf(s *State, facts []pubFacts, campaignID string, report *adnet.VendorReport) (ContextResult, error) {
	if a.Meta == nil || a.Matcher == nil {
		return ContextResult{}, fmt.Errorf("audit: context analysis requires metadata and a matcher")
	}
	res := ContextResult{CampaignID: campaignID, AuditImpressions: s.Len()}
	for pid, f := range facts {
		n := int(s.pubImps[pid])
		if !f.known {
			res.UnknownMeta += n
		} else if f.relevant {
			res.MeaningfulImpressions += n
		}
	}
	if report != nil {
		res.VendorClaimed = report.ContextualImpressions
		res.VendorTotal = report.TotalImpressionsCharged + report.RefundedImpressions
	}
	return res, nil
}
