package audit

import (
	"fmt"

	"adaudit/internal/stats"
)

// PopularityResult is the Figure 2 analysis: how a campaign's
// publishers and impressions distribute across popularity-rank buckets.
type PopularityResult struct {
	CampaignID string
	// Publishers histograms each distinct publisher once by its rank.
	Publishers *stats.Histogram
	// Impressions histograms every impression by its publisher's rank.
	Impressions *stats.Histogram
	// UnknownMeta counts impressions whose publisher has no rank
	// metadata (excluded from the histograms).
	UnknownMeta int

	// ranked holds each distinct known-metadata publisher's rank and
	// impressions, backing exact threshold queries (the histograms
	// bucket by decades, which cannot answer mid-bucket cut-offs like
	// the paper's Top-50K exactly).
	ranked []rankedPublisher
}

type rankedPublisher struct{ rank, impressions int }

// TopKPublisherFraction returns the share of distinct publishers inside
// the top-limit ranks, Figure 2's headline summary (e.g. limit=50000).
func (r PopularityResult) TopKPublisherFraction(limit int) float64 {
	return r.fractionAtOrBelow(limit, func(rankedPublisher) int { return 1 })
}

// TopKImpressionFraction returns the share of impressions delivered on
// publishers inside the top-limit ranks.
func (r PopularityResult) TopKImpressionFraction(limit int) float64 {
	return r.fractionAtOrBelow(limit, func(p rankedPublisher) int { return p.impressions })
}

func (r PopularityResult) fractionAtOrBelow(limit int, weight func(rankedPublisher) int) float64 {
	in, all := 0, 0
	for _, p := range r.ranked {
		all += weight(p)
		if p.rank <= limit {
			in += weight(p)
		}
	}
	if all == 0 {
		return 0
	}
	return float64(in) / float64(all)
}

// Popularity runs the Figure 2 analysis for one campaign (or the whole
// dataset when campaignID is ""), bucketing ranks logarithmically with
// the given base up to maxRank. The paper uses base 10 over the Alexa
// ranking's 10M span.
func (a *Auditor) Popularity(campaignID string, base float64, maxRank float64) (PopularityResult, error) {
	s := a.fill(campaignID)
	defer release(s)
	v := a.resolve(s, nil)
	defer viewPool.Put(v)
	return a.popularityOf(s, v.facts, campaignID, base, maxRank)
}

// popularityOf is the Figure 2 fold over one campaign's state: every
// distinct known-metadata publisher is observed once by its rank, and
// its impressions all at once; impressions on publishers without
// metadata are counted and left out. ranked is built fresh for the
// result, in the dictionary's first-seen order.
func (a *Auditor) popularityOf(s *State, facts []pubFacts, campaignID string, base, maxRank float64) (PopularityResult, error) {
	if a.Meta == nil {
		return PopularityResult{}, fmt.Errorf("audit: popularity analysis requires metadata")
	}
	lb, err := stats.NewLogBuckets(base, maxRank)
	if err != nil {
		return PopularityResult{}, fmt.Errorf("audit: building rank buckets: %w", err)
	}
	res := PopularityResult{
		CampaignID:  campaignID,
		Publishers:  stats.NewHistogram(lb),
		Impressions: stats.NewHistogram(lb),
		UnknownMeta: s.Len(),
	}
	if n := len(facts); n > 0 {
		res.ranked = make([]rankedPublisher, 0, n)
	}
	for pid, f := range facts {
		if f.known {
			n := int(s.pubImps[pid])
			res.ranked = append(res.ranked, rankedPublisher{f.rank, n})
			res.Publishers.Observe(float64(f.rank))
			res.Impressions.ObserveN(float64(f.rank), int64(n))
			res.UnknownMeta -= n
		}
	}
	return res, nil
}

// PopularityCPMCorrelation quantifies the paper's Figure 2 headline —
// that paying a higher CPM does not buy delivery on more popular
// publishers — as the Spearman rank correlation between campaign CPMs
// and their top-limit impression shares. A positive correlation would
// mean money buys popularity; the paper's data (and this reproduction)
// yield a non-positive one.
func PopularityCPMCorrelation(cpms []float64, results []PopularityResult, limit int) (float64, error) {
	if len(cpms) != len(results) {
		return 0, fmt.Errorf("audit: %d CPMs for %d popularity results", len(cpms), len(results))
	}
	shares := make([]float64, len(results))
	for i := range results {
		shares[i] = results[i].TopKImpressionFraction(limit)
	}
	return stats.SpearmanRho(cpms, shares)
}
