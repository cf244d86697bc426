package streamaudit

import (
	"fmt"
	"sort"
	"time"

	"adaudit/internal/adnet"
	"adaudit/internal/audit"
	"adaudit/internal/stats"
)

// Report materializes the full audit from the incremental state,
// mirroring audit.Auditor.FullAudit: one CampaignAudit per input (in
// input order), the aggregate brand-safety Venn, and the cross-
// campaign frequency scatter. At quiescence the result is deep-equal
// to FullAudit over the same store and inputs — the package's headline
// guarantee — because every nontrivially assembled result goes through
// the same audit-package materializer both paths share.
func (e *Engine) Report(inputs []audit.CampaignInput) (*audit.FullReport, error) {
	e.mu.Lock()
	defer e.mu.Unlock()

	reports := make(map[string]*adnet.VendorReport, len(inputs))
	for _, in := range inputs {
		if in.Report == nil {
			return nil, fmt.Errorf("audit: campaign %s has no vendor report", in.ID)
		}
		reports[in.ID] = in.Report
	}

	rep := &audit.FullReport{PerCampaign: make([]audit.CampaignAudit, len(inputs))}
	for i, in := range inputs {
		ca, err := e.campaignAuditLocked(in)
		if err != nil {
			return nil, err
		}
		rep.PerCampaign[i] = ca
	}

	reported := map[string]struct{}{}
	var anon int64
	for _, r := range reports {
		for _, p := range r.ReportedPublishers() {
			reported[p] = struct{}{}
		}
		anon += r.AnonymousImpressions()
	}
	rep.Aggregate = audit.BrandSafetyFromSets(e.meta, "", e.st.allPubs, reported, anon)
	rep.Frequency = audit.FrequencyFromTimes(e.st.freq)
	return rep, nil
}

// campaignAuditLocked materializes one campaign's five dimensions from
// the incremental state. Caller holds e.mu. A campaign with no
// observed impressions produces the same empty results the batch path
// does.
func (e *Engine) campaignAuditLocked(in audit.CampaignInput) (audit.CampaignAudit, error) {
	cs := e.st.campaigns[in.ID]
	if cs == nil {
		cs = &campaignState{} // nil maps/slices: only ranged and len'd below
	}
	ca := audit.CampaignAudit{ID: in.ID}

	// Brand safety: the audited set is the campaign's publisher keys.
	audited := make(map[string]struct{}, len(cs.pubImps))
	for p := range cs.pubImps {
		audited[p] = struct{}{}
	}
	ca.BrandSafety = audit.BrandSafetyFromSets(e.meta, in.ID, audited,
		stats.SetOf(in.Report.ReportedPublishers()), in.Report.AnonymousImpressions())

	// Context: relevance is a publisher property, so per-publisher
	// impression counts are a sufficient statistic; the campaign
	// keywords are only known here, at query time.
	query := e.matcher.Compile(in.Keywords)
	ctx := audit.ContextResult{CampaignID: in.ID}
	for pub, n := range cs.pubImps {
		ctx.AuditImpressions += n
		if meta, ok := e.lookupMeta(pub); !ok {
			ctx.UnknownMeta += n
		} else if query.Relevant(meta.Keywords, meta.Topics) {
			ctx.MeaningfulImpressions += n
		}
	}
	ctx.VendorClaimed = in.Report.ContextualImpressions
	ctx.VendorTotal = in.Report.TotalImpressionsCharged + in.Report.RefundedImpressions
	ca.Context = ctx

	// Popularity: publisher ranks in sorted-publisher order (the batch
	// iteration order), impression ranks in insertion order (already
	// maintained that way). Copy impRanks — the materializer retains
	// its arguments and the live slice keeps growing.
	pubs := make([]string, 0, len(cs.pubImps))
	for p := range cs.pubImps {
		pubs = append(pubs, p)
	}
	sort.Strings(pubs)
	var pubRanks []int
	for _, p := range pubs {
		if meta, ok := e.lookupMeta(p); ok {
			pubRanks = append(pubRanks, meta.Rank)
		}
	}
	pop, err := audit.PopularityFromRanks(in.ID, 10, 10_000_000,
		pubRanks, append([]int(nil), cs.impRanks...), cs.unknownMeta)
	if err != nil {
		return audit.CampaignAudit{}, fmt.Errorf("audit: popularity for %s: %w", in.ID, err)
	}
	ca.Popularity = pop

	// Viewability: counters plus the exposure summary. Summarize
	// copies before sorting and the samples are in insertion order, so
	// every statistic (including the order-sensitive float mean)
	// matches the batch scan.
	ca.Viewability = audit.ViewabilityResult{
		CampaignID:          in.ID,
		Impressions:         len(cs.exposures),
		ViewableUB:          cs.viewableUB,
		MeasuredImpressions: cs.measured,
		MRCViewable:         cs.mrcViewable,
		ExposureSummary:     stats.Summarize(cs.exposures),
	}

	// Fraud: the engine maintains exactly the maps the batch fold
	// builds; the shared materializer does the rest (and copies, so
	// the result never aliases live state).
	ca.Fraud = audit.FraudFromState(in.ID, len(cs.exposures), cs.dcImps,
		cs.byVerdict, cs.ipSeen, cs.pubSeen, cs.dcPerPub)

	// Adversarial dimensions. Sellers and pooling are pure functions of
	// the vendor report and the directory, shared verbatim with the
	// batch path. Behavior folds the slot-indexed state; timestamps come
	// from the frequency groups, looked up only for the users the fold
	// scores (it sorts them in place, exactly as FrequencyFromTimes does).
	ca.Sellers = audit.SellerAuditFromReport(in.ID, in.Report, e.sellers)
	ca.Pooling = audit.PoolingFromReport(in.ID, in.Report, e.sellers, audit.DefaultMaxGroupSpan)
	ca.Behavior = audit.BehaviorFromState(in.ID, audit.BehaviorState{
		Times: func(user string) []time.Time {
			return e.st.freq[audit.FrequencyKey{CampaignID: in.ID, UserKey: user}]
		},
		UserSlots:   cs.userSlots,
		PubSlots:    cs.pubSlots,
		Exposures:   cs.exposures,
		VisMeasured: cs.visMeasured,
		VisFrac:     cs.visFrac,
		UserConvs:   cs.userConvs,
		UserDC:      cs.userDC,
	})
	return ca, nil
}

// CampaignLive is the live per-campaign summary served by
// /api/live/summary and the SSE stream — the streaming analogue of the
// query API's CampaignSummary, plus the feed position it reflects.
type CampaignLive struct {
	CampaignID         string    `json:"campaign_id"`
	Seq                int64     `json:"seq"`
	Impressions        int       `json:"impressions"`
	Publishers         int       `json:"publishers"`
	Users              int       `json:"users"`
	Clicks             int       `json:"clicks"`
	Conversions        int       `json:"conversions"`
	ViewableUpperBound float64   `json:"viewable_upper_bound"`
	MRCViewableShare   float64   `json:"mrc_viewable_share"`
	DataCenterShare    float64   `json:"data_center_share"`
	ContextShare       float64   `json:"context_share"`
	FirstSeen          time.Time `json:"first_seen"`
	LastSeen           time.Time `json:"last_seen"`
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
	ids := make([]string, 0, len(e.st.campaigns))
	for id := range e.st.campaigns {
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
	if _, ok := e.st.campaigns[id]; !ok {
		return CampaignLive{}, false
	}
	return e.liveSummaryLocked(id), true
}

func (e *Engine) liveSummaryLocked(id string) CampaignLive {
	cs := e.st.campaigns[id]
	sum := CampaignLive{
		CampaignID:  id,
		Seq:         e.appliedSeq.Load(),
		Impressions: len(cs.exposures),
		Publishers:  len(cs.pubImps),
		Users:       len(cs.users),
		Clicks:      cs.clicks,
		Conversions: cs.conversions,
		FirstSeen:   cs.firstSeen,
		LastSeen:    cs.lastSeen,
	}
	if n := len(cs.exposures); n > 0 {
		sum.ViewableUpperBound = float64(cs.viewableUB) / float64(n)
		sum.DataCenterShare = float64(cs.dcImps) / float64(n)
		sum.ContextShare = e.contextShareLocked(id, cs)
	}
	if cs.measured > 0 {
		sum.MRCViewableShare = float64(cs.mrcViewable) / float64(cs.measured)
	}
	return sum
}

// contextShareLocked computes the contextual match rate against the
// configured keywords (zero when none were configured).
func (e *Engine) contextShareLocked(id string, cs *campaignState) float64 {
	kws := e.keywords[id]
	if len(kws) == 0 {
		return 0
	}
	query := e.matcher.Compile(kws)
	meaningful, total := 0, 0
	for pub, n := range cs.pubImps {
		total += n
		if meta, ok := e.lookupMeta(pub); ok && query.Relevant(meta.Keywords, meta.Topics) {
			meaningful += n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(meaningful) / float64(total)
}

// Audit returns one campaign's live five-dimension audit view, or
// ok=false for a campaign the engine has not observed.
func (e *Engine) Audit(id string) (LiveAudit, bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.st.campaigns[id]; !ok {
		return LiveAudit{}, false, nil
	}
	rep := e.reports[id]
	if rep == nil {
		rep = &adnet.VendorReport{}
	}
	ca, err := e.campaignAuditLocked(audit.CampaignInput{ID: id, Keywords: e.keywords[id], Report: rep})
	if err != nil {
		return LiveAudit{}, true, err
	}
	return LiveAudit{Summary: e.liveSummaryLocked(id), Audit: ca}, true, nil
}
