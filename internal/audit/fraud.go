package audit

import (
	"cmp"
	"slices"
	"strings"
)

// FraudResult is the Table 4 analysis: how much of a campaign's traffic
// came from data-center IP addresses, which the MRC/JICWEBS invalid-
// traffic guidelines the paper cites treat as likely fraud.
type FraudResult struct {
	CampaignID string
	// DistinctIPs is the number of distinct client IPs (pseudonyms)
	// observed; DataCenterIPs how many of them the detection cascade
	// flagged.
	DistinctIPs   int
	DataCenterIPs int
	// Impressions and DataCenterImpressions count delivered vs.
	// DC-delivered impressions.
	Impressions           int
	DataCenterImpressions int
	// Publishers and PublishersServingDC count distinct publishers vs.
	// those that served at least one impression to a DC address.
	Publishers          int
	PublishersServingDC int
	// ByVerdict breaks DC impressions down by detection stage
	// (provider-db / deny-list / manual), the cascade ablation.
	ByVerdict map[string]int
	// TopDCPublishers lists the publishers with the most DC
	// impressions, most exposed first (at most 20).
	TopDCPublishers []string
}

// PctDataCenterIPs is Table 4 column 1.
func (r FraudResult) PctDataCenterIPs() float64 {
	if r.DistinctIPs == 0 {
		return 0
	}
	return float64(r.DataCenterIPs) / float64(r.DistinctIPs)
}

// PctDataCenterImpressions is Table 4 column 2.
func (r FraudResult) PctDataCenterImpressions() float64 {
	if r.Impressions == 0 {
		return 0
	}
	return float64(r.DataCenterImpressions) / float64(r.Impressions)
}

// PctPublishersServingDC is Table 4 column 3.
func (r FraudResult) PctPublishersServingDC() float64 {
	if r.Publishers == 0 {
		return 0
	}
	return float64(r.PublishersServingDC) / float64(r.Publishers)
}

// IsDataCenterVerdict reports whether an ingest-time data-center
// verdict (Impression.DataCenter) counts as data-center traffic: any
// cascade stage except the explicit non-DC and VPN-exception outcomes.
func IsDataCenterVerdict(verdict string) bool {
	return verdict != "" && verdict != "not-data-center" && verdict != "vpn-exception"
}

// Fraud runs the Table 4 analysis for one campaign ("" for all).
func (a *Auditor) Fraud(campaignID string) FraudResult {
	s := a.fill(campaignID)
	defer release(s)
	return s.Fraud(campaignID)
}

// Fraud is the Table 4 fold. The per-impression data-center verdicts
// were computed at ingest time — before IP anonymisation, as the
// paper's methodology requires — so the fold only aggregates them: per
// verdict, per IP pseudonym and per publisher. ByVerdict and the
// top-publishers list are built fresh for the result.
func (s *State) Fraud(campaignID string) FraudResult {
	c := &s.cols
	res := FraudResult{
		CampaignID:            campaignID,
		Impressions:           s.Len(),
		DataCenterImpressions: s.tally.dataCenter,
		DistinctIPs:           len(c.IPs),
		Publishers:            len(c.Pubs.keys),
		ByVerdict:             map[string]int{},
	}
	for _, dc := range c.IPs {
		if dc {
			res.DataCenterIPs++
		}
	}
	sc := scratchPool.Get().(*foldScratch)
	defer scratchPool.Put(sc)
	// counts holds each publisher's data-center impressions.
	sc.counts = slices.Grow(sc.counts[:0], len(c.Pubs.keys))[:len(c.Pubs.keys)]
	clear(sc.counts)
	for slot, pid := range c.PubOf {
		if s.isDC(slot) {
			sc.counts[pid]++
			res.ByVerdict[c.Verdicts.keys[c.VerdictOf[slot]]]++
		}
	}
	sc.order = sc.order[:0]
	for pid, n := range sc.counts {
		if n > 0 {
			sc.order = append(sc.order, int32(pid))
		}
	}
	res.PublishersServingDC = len(sc.order)
	slices.SortFunc(sc.order, func(a, b int32) int {
		return cmp.Or(cmp.Compare(sc.counts[b], sc.counts[a]), strings.Compare(c.Pubs.keys[a], c.Pubs.keys[b]))
	})
	res.TopDCPublishers = make([]string, 0, min(len(sc.order), 20))
	for _, pid := range sc.order[:cap(res.TopDCPublishers)] {
		res.TopDCPublishers = append(res.TopDCPublishers, c.Pubs.keys[pid])
	}
	return res
}
