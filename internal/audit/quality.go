package audit

import (
	"cmp"
	"slices"
	"strings"
	"time"

	"adaudit/internal/stats"
	"adaudit/internal/store"
)

// ViewabilityResult is the Table 3 analysis: the fraction of logged
// impressions meeting the upper-bound viewability criterion the
// methodology can measure from inside an iframe — exposed for at least
// one second (the Same-Origin policy hides whether 50% of pixels were
// on screen, §3.1).
type ViewabilityResult struct {
	CampaignID  string
	Impressions int
	ViewableUB  int
	// MeasuredImpressions counts placements where the beacon could read
	// the visible-pixel fraction (friendly iframes); MRCViewable counts
	// those meeting the FULL MRC standard — >= 50% of pixels for >= 1 s.
	// Comparing MRCFraction with Fraction quantifies how loose the
	// §3.1 upper bound is.
	MeasuredImpressions int
	MRCViewable         int
	// ExposureSummary describes the exposure-time distribution in
	// seconds.
	ExposureSummary stats.Summary
}

// Fraction returns the viewable-upper-bound share.
func (r ViewabilityResult) Fraction() float64 {
	if r.Impressions == 0 {
		return 0
	}
	return float64(r.ViewableUB) / float64(r.Impressions)
}

// MRCFraction returns the strict-standard viewable share among the
// impressions where visibility was measurable, or 0 when none were.
func (r ViewabilityResult) MRCFraction() float64 {
	if r.MeasuredImpressions == 0 {
		return 0
	}
	return float64(r.MRCViewable) / float64(r.MeasuredImpressions)
}

// ViewabilityThreshold is the MRC/IAB standard's time component.
const ViewabilityThreshold = time.Second

// Viewability runs the Table 3 analysis for one campaign ("" for all).
func (a *Auditor) Viewability(campaignID string) ViewabilityResult {
	res := ViewabilityResult{CampaignID: campaignID}
	exposures := floatPool.get(a.impressionCount(campaignID))
	defer floatPool.put(exposures)
	a.visitImpressions(campaignID, func(im *store.Impression) bool {
		res.Impressions++
		if im.Exposure >= ViewabilityThreshold {
			res.ViewableUB++
		}
		if im.VisibilityMeasured {
			res.MeasuredImpressions++
			if im.Exposure >= ViewabilityThreshold && im.MaxVisibleFraction >= 0.5 {
				res.MRCViewable++
			}
		}
		exposures = append(exposures, im.Exposure.Seconds())
		return true
	})
	res.ExposureSummary = stats.SummarizeInPlace(exposures)
	return res
}

// UserFrequency is one point of Figure 3's scatter: a (campaign, user)
// pair with the impressions it received and the median inter-arrival
// time between consecutive impressions.
type UserFrequency struct {
	CampaignID string
	UserKey    string
	// Impressions of this campaign's ad delivered to the user.
	Impressions int
	// MedianInterArrival between consecutive impressions; zero when the
	// user saw fewer than two.
	MedianInterArrival time.Duration
}

// FrequencyResult is the Figure 3 analysis.
type FrequencyResult struct {
	// Points holds one entry per (campaign, user) pair, sorted by
	// impressions descending.
	Points []UserFrequency
	// UsersOver counts users above each impression threshold; the paper
	// reports 1720 users over 10 and 176 over 100.
	UsersOver10  int
	UsersOver100 int
}

// MaxImpressions returns the heaviest user's impression count.
func (r FrequencyResult) MaxImpressions() int {
	if len(r.Points) == 0 {
		return 0
	}
	return r.Points[0].Impressions
}

// MedianIATBelow counts users with more than minImps impressions whose
// median inter-arrival time is below d — the paper's "hundreds of
// impressions under a minute apart" observation.
func (r FrequencyResult) MedianIATBelow(minImps int, d time.Duration) int {
	n := 0
	for _, p := range r.Points {
		if p.Impressions > minImps && p.MedianInterArrival > 0 && p.MedianInterArrival < d {
			n++
		}
	}
	return n
}

// FrequencyKey identifies one (campaign, user) pair of the Figure 3
// scatter — the grouping key for per-user impression timestamps.
type FrequencyKey struct {
	CampaignID string
	UserKey    string
}

// Frequency runs the Figure 3 analysis across all campaigns: a user is
// an (IP pseudonym, User-Agent) pair, and each campaign's ad is counted
// separately for the same user.
//
// Grouping is done in two passes over the store: the first counts
// impressions per (campaign, user) key, the second fills exact-capacity
// sub-slices carved out of one shared timestamp arena. Compared with
// the obvious one-pass append-per-impression build, this replaces the
// per-key slice growth chains (tens of thousands of reallocations at
// paper scale) with two map builds and a single arena allocation.
func (a *Auditor) Frequency() FrequencyResult {
	counts := map[FrequencyKey]int{}
	total := 0
	a.Store.Visit(func(im *store.Impression) bool {
		counts[FrequencyKey{im.CampaignID, im.UserKey}]++
		total++
		return true
	})
	arena := make([]time.Time, total)
	times := make(map[FrequencyKey][]time.Time, len(counts))
	next := 0
	for k, n := range counts {
		// Full slices (len 0, cap n) so the fill pass cannot spill past
		// its key's region even on a miscount.
		times[k] = arena[next : next : next+n]
		next += n
	}
	a.Store.Visit(func(im *store.Impression) bool {
		k := FrequencyKey{im.CampaignID, im.UserKey}
		times[k] = append(times[k], im.Timestamp)
		return true
	})
	return FrequencyFromTimes(times)
}

// FrequencyFromTimes materializes the Figure 3 result from per-(campaign,
// user) impression timestamps — the shared fold behind the batch
// analysis and the streaming engine's incremental view. The timestamp
// slices are sorted in place (the result depends only on the multiset);
// the map itself is not retained. One inter-arrival scratch buffer is
// reused across all keys, so the fold allocates only the Points slice.
func FrequencyFromTimes(times map[FrequencyKey][]time.Time) FrequencyResult {
	res := FrequencyResult{Points: make([]UserFrequency, 0, len(times))}
	var gaps []float64
	for k, ts := range times {
		p := UserFrequency{
			CampaignID:  k.CampaignID,
			UserKey:     k.UserKey,
			Impressions: len(ts),
		}
		if len(ts) >= 2 {
			slices.SortFunc(ts, func(a, b time.Time) int { return a.Compare(b) })
			if cap(gaps) < len(ts)-1 {
				gaps = make([]float64, 0, len(ts)-1)
			}
			gaps = gaps[:0]
			for i := 1; i < len(ts); i++ {
				// float64 nanoseconds, the representation
				// stats.MedianDurations reduces to — kept bit-identical so
				// the streaming engine's view cannot drift.
				gaps = append(gaps, float64(ts[i].Sub(ts[i-1])))
			}
			slices.Sort(gaps)
			p.MedianInterArrival = time.Duration(stats.QuantileSorted(gaps, 0.5))
		}
		if p.Impressions > 10 {
			res.UsersOver10++
		}
		if p.Impressions > 100 {
			res.UsersOver100++
		}
		res.Points = append(res.Points, p)
	}
	slices.SortFunc(res.Points, func(a, b UserFrequency) int {
		if a.Impressions != b.Impressions {
			return cmp.Compare(b.Impressions, a.Impressions)
		}
		if c := strings.Compare(a.UserKey, b.UserKey); c != 0 {
			return c
		}
		return strings.Compare(a.CampaignID, b.CampaignID)
	})
	return res
}
