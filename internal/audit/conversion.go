package audit

import (
	"sort"

	"adaudit/internal/store"
)

// ConversionResult is the conversion-ratio analysis the paper defines
// in §2 and defers to future work: how exposures turn into desired
// actions, segmented by traffic quality, plus the conversion-vs-
// frequency curve behind the "cap at 10" recommendation the paper
// cites.
type ConversionResult struct {
	CampaignID string
	// Impressions / Clicks / Conversions are the logged totals.
	Impressions int
	Clicks      int
	Conversions int
	// ValueCents is the summed conversion value.
	ValueCents int64
	// DataCenter segments the same counters over data-center traffic —
	// the tell: bots click but never buy.
	DataCenterImpressions int
	DataCenterClicks      int
	DataCenterConversions int
	// ByExposure maps a user's total exposure count (bucketed) to the
	// users and conversions at that frequency, the empirical version of
	// the optimal-frequency curve.
	ByExposure []ExposureBucket
}

// ExposureBucket aggregates users whose total exposure count falls in
// [Lo, Hi].
type ExposureBucket struct {
	Lo, Hi      int
	Users       int
	Impressions int
	Conversions int
}

// ConversionsPerUser returns the bucket's conversions per user.
func (b ExposureBucket) ConversionsPerUser() float64 {
	if b.Users == 0 {
		return 0
	}
	return float64(b.Conversions) / float64(b.Users)
}

// ConversionRatio is conversions per impression (§2's definition).
func (r ConversionResult) ConversionRatio() float64 {
	if r.Impressions == 0 {
		return 0
	}
	return float64(r.Conversions) / float64(r.Impressions)
}

// CTR is clicks per impression.
func (r ConversionResult) CTR() float64 {
	if r.Impressions == 0 {
		return 0
	}
	return float64(r.Clicks) / float64(r.Impressions)
}

// DataCenterCTR is the click rate of data-center traffic — typically
// comparable to or above the human CTR while converting at zero, the
// click-spam signature.
func (r ConversionResult) DataCenterCTR() float64 {
	if r.DataCenterImpressions == 0 {
		return 0
	}
	return float64(r.DataCenterClicks) / float64(r.DataCenterImpressions)
}

// exposureBucketBounds are the frequency buckets of the optimal-
// frequency curve; the final bucket is open-ended.
var exposureBucketBounds = [][2]int{
	{1, 1}, {2, 3}, {4, 6}, {7, 10}, {11, 20}, {21, 50}, {51, 1 << 30},
}

// Conversions runs the conversion analysis for one campaign ("" for
// all). Conversions join to exposures through the shared (campaign,
// user) identity.
func (a *Auditor) Conversions(campaignID string) ConversionResult {
	res := ConversionResult{CampaignID: campaignID}

	type userStats struct {
		exposures   int
		conversions int
	}
	users := map[string]*userStats{} // campaign|user -> stats
	key := func(camp, user string) string { return camp + "|" + user }

	// One streaming pass builds both the per-user exposure stats and
	// the DC-user set (the old code materialized the campaign's
	// impressions twice to do this).
	dcUsers := map[string]bool{}
	a.visitImpressions(campaignID, func(im *store.Impression) bool {
		res.Impressions++
		res.Clicks += im.Clicks
		isDC := IsDataCenterVerdict(im.DataCenter)
		k := key(im.CampaignID, im.UserKey)
		if isDC {
			res.DataCenterImpressions++
			res.DataCenterClicks += im.Clicks
			dcUsers[k] = true
		}
		if users[k] == nil {
			users[k] = &userStats{}
		}
		users[k].exposures++
		return true
	})

	for _, conv := range a.Store.Conversions(campaignID) {
		res.Conversions++
		res.ValueCents += conv.ValueCents
		k := key(conv.CampaignID, conv.UserKey)
		if dcUsers[k] {
			res.DataCenterConversions++
		}
		if u := users[k]; u != nil {
			u.conversions++
		}
	}

	// Build the frequency curve.
	for _, b := range exposureBucketBounds {
		res.ByExposure = append(res.ByExposure, ExposureBucket{Lo: b[0], Hi: b[1]})
	}
	for _, u := range users {
		for i := range res.ByExposure {
			b := &res.ByExposure[i]
			if u.exposures >= b.Lo && u.exposures <= b.Hi {
				b.Users++
				b.Impressions += u.exposures
				b.Conversions += u.conversions
				break
			}
		}
	}
	sort.Slice(res.ByExposure, func(i, j int) bool {
		return res.ByExposure[i].Lo < res.ByExposure[j].Lo
	})
	return res
}
