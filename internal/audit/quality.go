package audit

import (
	"cmp"
	"slices"
	"strings"
	"time"

	"adaudit/internal/stats"
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
	s := a.fill(campaignID)
	defer release(s)
	return s.Viewability(campaignID)
}

// Viewability is the Table 3 fold: the tallies the state keeps, plus
// the exposure summary (Summarize sorts a copy of the column; its mean
// is summed first, in slot order).
func (s *State) Viewability(campaignID string) ViewabilityResult {
	return ViewabilityResult{
		CampaignID:          campaignID,
		Impressions:         s.Len(),
		ViewableUB:          s.tally.viewableUB,
		MeasuredImpressions: s.tally.measured,
		MRCViewable:         s.tally.mrcViewable,
		ExposureSummary:     stats.Summarize(s.cols.Exposures),
	}
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

// Frequency runs the Figure 3 analysis across all campaigns: a user is
// an (IP pseudonym, User-Agent) pair, and each campaign's ad is counted
// separately for the same user.
func (a *Auditor) Frequency() FrequencyResult {
	states := a.fillAll(a.workers())
	defer releaseAll(states)
	return FrequencyOf(states)
}

// FrequencyOf is the Figure 3 fold over every campaign's state: one
// point per (campaign, user), that user's slots regrouped by a counting
// sort and its timestamps sorted in scratch.
func FrequencyOf(states map[string]*State) FrequencyResult {
	users := 0
	for _, s := range states {
		users += len(s.cols.Users.keys)
	}
	res := FrequencyResult{Points: make([]UserFrequency, 0, users)}
	sc := scratchPool.Get().(*foldScratch)
	defer scratchPool.Put(sc)
	for id, s := range states {
		c := &s.cols
		sc.eachGroup(c.UserOf, len(c.Users.keys), func(uid int, slots []int32) {
			p := UserFrequency{CampaignID: id, UserKey: c.Users.keys[uid], Impressions: len(slots)}
			if len(slots) >= 2 {
				ts := sc.gather(c.Times, slots)
				slices.Sort(ts)
				sc.floats = sc.floats[:0]
				for i := 1; i < len(ts); i++ {
					sc.floats = append(sc.floats, float64(ts[i]-ts[i-1]))
				}
				slices.Sort(sc.floats)
				p.MedianInterArrival = time.Duration(stats.QuantileSorted(sc.floats, 0.5))
			}
			if p.Impressions > 10 {
				res.UsersOver10++
			}
			if p.Impressions > 100 {
				res.UsersOver100++
			}
			res.Points = append(res.Points, p)
		})
	}
	sc.sortPoints(res.Points)
	return res
}

// freqKey is a point's sort record: what decides nearly every
// comparison, in 16 bytes, so the sort moves and compares records
// instead of chasing two strings per point.
type freqKey struct {
	impressions int32
	point       int32  // index into the points being sorted
	prefix      uint64 // the user key's first 8 bytes, big-endian, zero-padded
}

// sortPoints orders points by impressions descending, then user key,
// then campaign — a total order, (campaign, user) being unique. Zero-
// padded big-endian prefixes order as their keys do wherever they
// differ; where they tie the strings decide.
func (sc *foldScratch) sortPoints(points []UserFrequency) {
	sc.keys = slices.Grow(sc.keys[:0], len(points))
	for i := range points {
		var prefix uint64
		for b, key := 0, points[i].UserKey; b < 8; b++ {
			prefix <<= 8
			if b < len(key) {
				prefix |= uint64(key[b])
			}
		}
		sc.keys = append(sc.keys, freqKey{int32(points[i].Impressions), int32(i), prefix})
	}
	slices.SortFunc(sc.keys, func(a, b freqKey) int {
		if c := cmp.Or(cmp.Compare(b.impressions, a.impressions), cmp.Compare(a.prefix, b.prefix)); c != 0 {
			return c
		}
		pa, pb := &points[a.point], &points[b.point]
		return cmp.Or(strings.Compare(pa.UserKey, pb.UserKey), strings.Compare(pa.CampaignID, pb.CampaignID))
	})
	// Permute in place, cycle by cycle: position i takes the point its
	// record names, and a record is marked placed by naming itself.
	for i := range sc.keys {
		if int(sc.keys[i].point) == i {
			continue
		}
		first := points[i]
		at := i
		for {
			from := int(sc.keys[at].point)
			sc.keys[at].point = int32(at)
			if from == i {
				points[at] = first
				break
			}
			points[at] = points[from]
			at = from
		}
	}
}
