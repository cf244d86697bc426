package audit

import (
	"cmp"
	"math"
	"slices"
	"strings"
)

// Behavioral bot scoring — fraud detection beyond IP metadata. The
// DC-IP cascade (Table 4) catches data-center automation, but bots
// routed through residential proxies present clean ipmeta. What they
// cannot fake cheaply is organic behavior: real users arrive on
// bursty, irregular schedules, dwell for wildly varying times, and
// occasionally convert. Fraud automation runs on a timer — fixed
// inter-impression cadence, fixed exposure, fixed visibility, zero
// conversions. The detector flags users whose whole behavioral
// signature is degenerate; every threshold is exported so the simtest
// oracle can compute expected flags independently from its shadow
// model.
const (
	// BehaviorMinImpressions is the minimum per-user impression count
	// before the cadence statistics mean anything.
	BehaviorMinImpressions = 5
	// BehaviorMaxCadenceCV is the flag threshold on the coefficient of
	// variation of a user's inter-arrival times. Organic arrivals are
	// approximately log-normal (CV near or above 1); a timer sits at 0.
	BehaviorMaxCadenceCV = 0.05
	// BehaviorDegenerateEps bounds the per-user exposure range (in
	// seconds) and visible-fraction range that still count as "no
	// variance".
	BehaviorDegenerateEps = 1e-9
)

// Placement-inflation thresholds: stacked/1-px placements keep ads
// "rendered" (long exposures) while almost no pixels are ever visible.
const (
	// InflationMinMeasured is the minimum visibility-measured
	// impressions per publisher before its mean fraction is scored.
	InflationMinMeasured = 5
	// InflationMaxMeanFraction flags publishers whose mean measured
	// visible fraction sits at 1-px levels.
	InflationMaxMeanFraction = 0.10
	// InflationMinViewableShare requires the exposure side of the
	// inflation: mostly "viewable" by time yet never on screen.
	InflationMinViewableShare = 0.5
)

// BotUser is one flagged user with its degenerate signature.
type BotUser struct {
	UserKey     string
	Impressions int
	// CadenceCV is the inter-arrival coefficient of variation that
	// tripped the flag.
	CadenceCV float64
	// DataCenter marks users the DC-IP cascade also caught; flagged
	// users without it are the residential-proxy population only this
	// detector sees.
	DataCenter bool
}

// InflatedPublisher is one flagged placement operator.
type InflatedPublisher struct {
	Publisher   string
	Impressions int
	Measured    int
	// MeanVisibleFraction is the mean measured visible-pixel fraction;
	// ViewableShare the share of impressions exposed >= 1 s.
	MeanVisibleFraction float64
	ViewableShare       float64
}

// BehaviorResult is the behavioral fraud dimension: per-user bot
// scoring plus per-publisher placement-inflation scoring.
type BehaviorResult struct {
	CampaignID string
	// Users counts distinct users; UsersScored those with enough
	// impressions to score.
	Users       int
	UsersScored int
	// BotUsers lists flagged users, most impressions first;
	// BotImpressions sums their impressions. ResidentialBotUsers
	// counts the flagged users the DC cascade did NOT catch.
	BotUsers            []BotUser
	BotImpressions      int
	ResidentialBotUsers int
	// Publishers counts distinct publishers; PublishersScored those
	// with enough measured impressions; InflatedPublishers the flagged
	// ones with InflatedImpressions their impression total.
	Publishers          int
	PublishersScored    int
	InflatedPublishers  []InflatedPublisher
	InflatedImpressions int
	// Impressions is the campaign's impression total, the denominator
	// of the share methods.
	Impressions int
}

// PctBotImpressions returns flagged users' share of the campaign's
// impressions.
func (r BehaviorResult) PctBotImpressions() float64 {
	if r.Impressions == 0 {
		return 0
	}
	return float64(r.BotImpressions) / float64(r.Impressions)
}

// PctInflatedImpressions returns flagged publishers' share of the
// campaign's impressions.
func (r BehaviorResult) PctInflatedImpressions() float64 {
	if r.Impressions == 0 {
		return 0
	}
	return float64(r.InflatedImpressions) / float64(r.Impressions)
}

// CadenceCV returns the coefficient of variation (stddev/mean) of the
// inter-arrival times of ts (unix nanoseconds), sorting ts in place. A
// single repeated timestamp (mean gap 0) returns 0 — maximally regular.
// Fewer than three timestamps return +Inf: no cadence is measurable.
func CadenceCV(ts []int64) float64 {
	if len(ts) < 3 {
		return math.Inf(1)
	}
	slices.Sort(ts)
	n := float64(len(ts) - 1)
	var sum float64
	for i := 1; i < len(ts); i++ {
		sum += float64(ts[i] - ts[i-1])
	}
	mean := sum / n
	if mean == 0 {
		return 0
	}
	var sq float64
	for i := 1; i < len(ts); i++ {
		d := float64(ts[i]-ts[i-1]) - mean
		sq += d * d
	}
	return math.Sqrt(sq/n) / mean
}

// Behavior runs the behavioral fraud analysis for one campaign (""
// for all campaigns together).
func (a *Auditor) Behavior(campaignID string) BehaviorResult {
	s := a.fill(campaignID)
	defer release(s)
	return s.Behavior(campaignID)
}

// Behavior is the behavioral fold: a counting sort regroups the slots
// by user, then by publisher, and each group goes through behaviorFold.
// A user's timestamps are gathered into scratch only when it reaches
// cadence scoring.
func (s *State) Behavior(campaignID string) BehaviorResult {
	c := &s.cols
	sc := scratchPool.Get().(*foldScratch)
	defer scratchPool.Put(sc)
	f := behaviorFold{exposures: c.Exposures, visMeasured: c.VisMeasured, visFrac: c.VisFrac}
	sc.eachGroup(c.UserOf, len(c.Users.keys), func(uid int, slots []int32) {
		user := c.Users.keys[uid]
		if f.scorable(len(slots), c.Convs[user]) {
			dc := slices.ContainsFunc(slots, func(sl int32) bool { return s.isDC(int(sl)) })
			f.user(user, slots, sc.gather(c.Times, slots), dc)
		}
	})
	sc.eachGroup(c.PubOf, len(c.Pubs.keys), func(pid int, slots []int32) { f.publisher(c.Pubs.keys[pid], slots) })
	return f.result(campaignID, len(c.Users.keys), len(c.Pubs.keys))
}

// behaviorFold holds the scoring rules of the behavioral dimension, fed
// one user or publisher group at a time over the slot-indexed signals.
// Groups may arrive in any order (both result lists are sorted on a
// unique key); a group's slots must be in insertion order.
type behaviorFold struct {
	exposures   []float64
	visMeasured []bool
	visFrac     []float64
	res         BehaviorResult
}

// scorable counts a user with enough impressions to score; false also
// for converting users, who are humans whatever their cadence.
func (f *behaviorFold) scorable(impressions, conversions int) bool {
	if impressions < BehaviorMinImpressions {
		return false
	}
	f.res.UsersScored++
	return conversions == 0
}

// user flags a scorable user whose whole signature is degenerate;
// times (the user's timestamps, a scratch copy) are sorted in place.
func (f *behaviorFold) user(user string, slots []int32, times []int64, dataCenter bool) {
	cv := CadenceCV(times)
	if !(cv <= BehaviorMaxCadenceCV) || !f.degenerateSlots(slots) {
		return
	}
	f.res.BotUsers = append(f.res.BotUsers, BotUser{
		UserKey:     user,
		Impressions: len(slots),
		CadenceCV:   cv,
		DataCenter:  dataCenter,
	})
}

// publisher scores one publisher's placements for inflation.
func (f *behaviorFold) publisher(pub string, slots []int32) {
	threshold := ViewabilityThreshold.Seconds()
	measured, viewable := 0, 0
	var fracSum float64
	for _, sl := range slots {
		if f.exposures[sl] >= threshold {
			viewable++
		}
		if f.visMeasured[sl] {
			measured++
			fracSum += f.visFrac[sl]
		}
	}
	if measured < InflationMinMeasured {
		return
	}
	f.res.PublishersScored++
	mean := fracSum / float64(measured)
	vshare := float64(viewable) / float64(len(slots))
	if mean <= InflationMaxMeanFraction && vshare >= InflationMinViewableShare {
		f.res.InflatedPublishers = append(f.res.InflatedPublishers, InflatedPublisher{
			Publisher:           pub,
			Impressions:         len(slots),
			Measured:            measured,
			MeanVisibleFraction: mean,
			ViewableShare:       vshare,
		})
	}
}

// result sorts the flagged lists and totals them.
func (f *behaviorFold) result(campaignID string, users, publishers int) BehaviorResult {
	res := f.res
	res.CampaignID, res.Users, res.Publishers, res.Impressions = campaignID, users, publishers, len(f.exposures)
	slices.SortFunc(res.BotUsers, func(a, b BotUser) int {
		return cmp.Or(cmp.Compare(b.Impressions, a.Impressions), strings.Compare(a.UserKey, b.UserKey))
	})
	for _, u := range res.BotUsers {
		res.BotImpressions += u.Impressions
		if !u.DataCenter {
			res.ResidentialBotUsers++
		}
	}
	slices.SortFunc(res.InflatedPublishers, func(a, b InflatedPublisher) int {
		return cmp.Or(cmp.Compare(b.Impressions, a.Impressions), strings.Compare(a.Publisher, b.Publisher))
	})
	for _, p := range res.InflatedPublishers {
		res.InflatedImpressions += p.Impressions
	}
	return res
}

// degenerateSlots reports whether the user's mutable per-impression
// signals show no variance at all: exposure range within epsilon, and
// — among visibility-measured impressions, if any — visible-fraction
// range within epsilon.
func (f *behaviorFold) degenerateSlots(slots []int32) bool {
	minE, maxE := math.Inf(1), math.Inf(-1)
	minF, maxF := math.Inf(1), math.Inf(-1)
	measured := false
	for _, sl := range slots {
		e := f.exposures[sl]
		if e < minE {
			minE = e
		}
		if e > maxE {
			maxE = e
		}
		if f.visMeasured[sl] {
			measured = true
			v := f.visFrac[sl]
			if v < minF {
				minF = v
			}
			if v > maxF {
				maxF = v
			}
		}
	}
	if maxE-minE > BehaviorDegenerateEps {
		return false
	}
	if measured && maxF-minF > BehaviorDegenerateEps {
		return false
	}
	return true
}
