package streamaudit

import (
	"sort"

	"adaudit/internal/adnet"
	"adaudit/internal/audit"
)

// Report materializes the full audit from the engine's states through
// the folds audit.Auditor.FullAudit runs: one CampaignAudit per input
// (in input order), the aggregate brand-safety Venn, and the cross-
// campaign frequency scatter. At quiescence the result is deep-equal to
// FullAudit over the same store and inputs — the package's headline
// guarantee. Nothing in it aliases the states: later applies cannot
// change a report already returned. The folds run on the auditor's
// worker pool under the engine lock — they only read the states, and
// applies wait for the shorter time the pool takes. From its second
// report on, a live engine keeps each campaign's resolved publishers
// and looks up only those its campaigns gained since the last report;
// a caller that reports once (a check, a verify run) leaves none held.
func (e *Engine) Report(inputs []audit.CampaignInput) (*audit.FullReport, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	kept := e.views
	if !e.reported {
		kept, e.reported = nil, true
	}
	return e.aud.ReportStates(e.states, kept, inputs)
}

// CampaignLive is the live per-campaign summary served by
// /api/live/summary and the SSE stream — the streaming analogue of the
// query API's CampaignSummary: the state's own O(1) summary, plus the
// feed position it reflects and the contextual match rate against the
// configured keywords (zero when none were configured).
type CampaignLive struct {
	CampaignID string `json:"campaign_id"`
	Seq        int64  `json:"seq"`
	audit.Summary
	ContextShare float64 `json:"context_share"`
}

// LiveAudit is the /api/live/audit/{campaign} response: the live
// summary plus the five-dimension audit view, computed against the
// configured vendor report and keywords (or an empty report when none
// was configured — the vendor-side columns read zero).
type LiveAudit struct {
	Summary CampaignLive        `json:"summary"`
	Audit   audit.CampaignAudit `json:"audit"`
}

// Summaries returns the live summary of every observed campaign,
// sorted by campaign ID.
func (e *Engine) Summaries() []CampaignLive {
	e.mu.Lock()
	defer e.mu.Unlock()
	ids := make([]string, 0, len(e.states))
	for id := range e.states {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]CampaignLive, 0, len(ids))
	for _, id := range ids {
		out = append(out, e.liveSummaryLocked(id))
	}
	return out
}

// LiveSummary returns one campaign's live summary.
func (e *Engine) LiveSummary(id string) (CampaignLive, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.states[id]; !ok {
		return CampaignLive{}, false
	}
	return e.liveSummaryLocked(id), true
}

func (e *Engine) liveSummaryLocked(id string) CampaignLive {
	st := e.states[id]
	live := CampaignLive{CampaignID: id, Seq: e.appliedSeq.Load(), Summary: st.Summary()}
	// One metadata lookup per publisher, none per impression, and on a
	// live engine none for a publisher an earlier call resolved.
	if kws := e.keywords[id]; len(kws) > 0 {
		ctx, _ := e.aud.ContextOf(st, e.views, id, kws, nil) // fails only without metadata, which New requires
		live.ContextShare = ctx.AuditFraction()
	}
	return live
}

// Audit returns one campaign's live five-dimension audit view, or
// ok=false for a campaign the engine has not observed.
func (e *Engine) Audit(id string) (LiveAudit, bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.states[id]
	if !ok {
		return LiveAudit{}, false, nil
	}
	rep := e.reports[id]
	if rep == nil {
		rep = &adnet.VendorReport{}
	}
	ca, err := e.aud.AuditState(st, e.views, audit.CampaignInput{ID: id, Keywords: e.keywords[id], Report: rep})
	if err != nil {
		return LiveAudit{}, true, err
	}
	return LiveAudit{Summary: e.liveSummaryLocked(id), Audit: ca}, true, nil
}
