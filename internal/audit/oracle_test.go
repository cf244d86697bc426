package audit

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"adaudit/internal/adnet"
	"adaudit/internal/store"
)

// Reference oracles: the map-of-slices / map-of-maps group-bys the
// behavioral and pooling dimensions shipped with, kept verbatim so the
// flat pooled folds that replaced them are checked against an
// independent implementation. The external tests (paper workload,
// adversary presets) reach them through export_test.go.

// refBehaviorState is the old BehaviorState: everything grouped
// through maps of freshly allocated slices.
type refBehaviorState struct {
	Times       map[string][]time.Time
	UserSlots   map[string][]int
	PubSlots    map[string][]int
	Exposures   []float64
	VisMeasured []bool
	VisFrac     []float64
	UserConvs   map[string]int
	UserDC      map[string]bool
}

// refBehaviorStateOf is the old Auditor.Behavior builder.
func refBehaviorStateOf(a *Auditor, campaignID string) refBehaviorState {
	s := refBehaviorState{
		Times:     map[string][]time.Time{},
		UserSlots: map[string][]int{},
		PubSlots:  map[string][]int{},
		UserConvs: map[string]int{},
		UserDC:    map[string]bool{},
	}
	slot := 0
	a.visitImpressions(campaignID, func(im *store.Impression) bool {
		s.Times[im.UserKey] = append(s.Times[im.UserKey], im.Timestamp)
		s.UserSlots[im.UserKey] = append(s.UserSlots[im.UserKey], slot)
		s.PubSlots[im.Publisher] = append(s.PubSlots[im.Publisher], slot)
		s.Exposures = append(s.Exposures, im.Exposure.Seconds())
		s.VisMeasured = append(s.VisMeasured, im.VisibilityMeasured)
		s.VisFrac = append(s.VisFrac, im.MaxVisibleFraction)
		if IsDataCenterVerdict(im.DataCenter) {
			s.UserDC[im.UserKey] = true
		}
		slot++
		return true
	})
	for _, c := range a.Store.Conversions(campaignID) { // "" is every campaign's
		s.UserConvs[c.UserKey]++
	}
	return s
}

// refCadenceCV is the old CadenceCV (sort.Slice).
func refCadenceCV(ts []time.Time) float64 {
	if len(ts) < 3 {
		return math.Inf(1)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
	n := float64(len(ts) - 1)
	var sum float64
	for i := 1; i < len(ts); i++ {
		sum += float64(ts[i].Sub(ts[i-1]))
	}
	mean := sum / n
	if mean == 0 {
		return 0
	}
	var sq float64
	for i := 1; i < len(ts); i++ {
		d := float64(ts[i].Sub(ts[i-1])) - mean
		sq += d * d
	}
	return math.Sqrt(sq/n) / mean
}

// refDegenerateSlots is the old degenerateSlots.
func refDegenerateSlots(s refBehaviorState, slots []int) bool {
	minE, maxE := math.Inf(1), math.Inf(-1)
	minF, maxF := math.Inf(1), math.Inf(-1)
	measured := false
	for _, sl := range slots {
		e := s.Exposures[sl]
		if e < minE {
			minE = e
		}
		if e > maxE {
			maxE = e
		}
		if s.VisMeasured[sl] {
			measured = true
			f := s.VisFrac[sl]
			if f < minF {
				minF = f
			}
			if f > maxF {
				maxF = f
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

// refBehaviorFromState is the old BehaviorFromState.
func refBehaviorFromState(campaignID string, s refBehaviorState) BehaviorResult {
	res := BehaviorResult{
		CampaignID: campaignID,
		Users:      len(s.UserSlots),
		Publishers: len(s.PubSlots),
	}
	res.Impressions = len(s.Exposures)

	for user, slots := range s.UserSlots {
		if len(slots) < BehaviorMinImpressions {
			continue
		}
		res.UsersScored++
		if s.UserConvs[user] > 0 {
			continue
		}
		cv := refCadenceCV(s.Times[user])
		if !(cv <= BehaviorMaxCadenceCV) {
			continue
		}
		if !refDegenerateSlots(s, slots) {
			continue
		}
		res.BotUsers = append(res.BotUsers, BotUser{
			UserKey:     user,
			Impressions: len(slots),
			CadenceCV:   cv,
			DataCenter:  s.UserDC[user],
		})
	}
	sort.Slice(res.BotUsers, func(i, j int) bool {
		a, b := res.BotUsers[i], res.BotUsers[j]
		if a.Impressions != b.Impressions {
			return a.Impressions > b.Impressions
		}
		return a.UserKey < b.UserKey
	})
	for _, u := range res.BotUsers {
		res.BotImpressions += u.Impressions
		if !u.DataCenter {
			res.ResidentialBotUsers++
		}
	}

	threshold := ViewabilityThreshold.Seconds()
	for pub, slots := range s.PubSlots {
		measured, viewable := 0, 0
		var fracSum float64
		for _, sl := range slots {
			if s.Exposures[sl] >= threshold {
				viewable++
			}
			if s.VisMeasured[sl] {
				measured++
				fracSum += s.VisFrac[sl]
			}
		}
		if measured < InflationMinMeasured {
			continue
		}
		res.PublishersScored++
		mean := fracSum / float64(measured)
		vshare := float64(viewable) / float64(len(slots))
		if mean <= InflationMaxMeanFraction && vshare >= InflationMinViewableShare {
			res.InflatedPublishers = append(res.InflatedPublishers, InflatedPublisher{
				Publisher:           pub,
				Impressions:         len(slots),
				Measured:            measured,
				MeanVisibleFraction: mean,
				ViewableShare:       vshare,
			})
		}
	}
	sort.Slice(res.InflatedPublishers, func(i, j int) bool {
		a, b := res.InflatedPublishers[i], res.InflatedPublishers[j]
		if a.Impressions != b.Impressions {
			return a.Impressions > b.Impressions
		}
		return a.Publisher < b.Publisher
	})
	for _, p := range res.InflatedPublishers {
		res.InflatedImpressions += p.Impressions
	}
	return res
}

// refPoolingFromReport is the old PoolingFromReport.
func refPoolingFromReport(campaignID string, rep *adnet.VendorReport, dir SellerDirectory, maxGroups int) PoolingResult {
	res := PoolingResult{CampaignID: campaignID, GroupLimit: maxGroups}
	if rep == nil {
		return res
	}
	type footprint struct {
		pubs   map[string]bool
		groups map[string]bool
		imps   int64
	}
	sellers := map[string]*footprint{}
	for _, row := range rep.Rows {
		if row.SellerID == "" || dir.KnownExchange(row.SellerID) {
			continue
		}
		f := sellers[row.SellerID]
		if f == nil {
			f = &footprint{pubs: map[string]bool{}, groups: map[string]bool{}}
			sellers[row.SellerID] = f
		}
		f.pubs[row.Publisher] = true
		f.groups[dir.OwnerGroup(row.Publisher)] = true
		f.imps += row.Impressions
	}
	res.SellersChecked = len(sellers)
	for id, f := range sellers {
		if len(f.groups) > res.MaxGroupSpan {
			res.MaxGroupSpan = len(f.groups)
		}
		if len(f.groups) > maxGroups {
			res.PooledSellers = append(res.PooledSellers, PooledSeller{
				SellerID:    id,
				Publishers:  len(f.pubs),
				OwnerGroups: len(f.groups),
				Impressions: f.imps,
			})
		}
	}
	sort.Slice(res.PooledSellers, func(i, j int) bool {
		a, b := res.PooledSellers[i], res.PooledSellers[j]
		if a.OwnerGroups != b.OwnerGroups {
			return a.OwnerGroups > b.OwnerGroups
		}
		if a.Impressions != b.Impressions {
			return a.Impressions > b.Impressions
		}
		return a.SellerID < b.SellerID
	})
	return res
}

// checkBehaviorOracle asserts that the behavioral fold (a state filled
// from a's store, folded by State.Behavior) agrees with the reference
// oracle on one campaign.
func checkBehaviorOracle(t testing.TB, a *Auditor, campaignID string) BehaviorResult {
	t.Helper()
	s := refBehaviorStateOf(a, campaignID)
	want := refBehaviorFromState(campaignID, s)
	if got := a.Behavior(campaignID); !reflect.DeepEqual(got, want) {
		t.Fatalf("campaign %q: Behavior diverges from the oracle\n got %+v\nwant %+v", campaignID, got, want)
	}
	return want
}

// checkPoolingOracle asserts PoolingFromReport agrees with the
// reference oracle on one report.
func checkPoolingOracle(t testing.TB, campaignID string, rep *adnet.VendorReport, dir SellerDirectory, maxGroups int) PoolingResult {
	t.Helper()
	want := refPoolingFromReport(campaignID, rep, dir, maxGroups)
	if got := PoolingFromReport(campaignID, rep, dir, maxGroups); !reflect.DeepEqual(got, want) {
		t.Fatalf("campaign %q: PoolingFromReport diverges from the oracle\n got %+v\nwant %+v", campaignID, got, want)
	}
	return want
}

// TestBehaviorFoldMatchesOracleRandomized drives seeded random stores
// through both folds: timer bots and humans, duplicate timestamps,
// users below BehaviorMinImpressions, converting and DC-caught users,
// stacked and honest publishers, users shared across campaigns.
func TestBehaviorFoldMatchesOracleRandomized(t *testing.T) {
	flaggedUsers, flaggedPubs := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := store.New()
		campaigns := []string{"c0", "c1", "c2"}[:1+rng.Intn(3)]
		users := 1 + rng.Intn(40)
		pubs := 1 + rng.Intn(12)
		seen := make([]int, users)
		for i, n := 0, rng.Intn(600); i < n; i++ {
			u := rng.Intn(users)
			p := rng.Intn(pubs)
			im := store.Impression{
				CampaignID:  campaigns[rng.Intn(len(campaigns))],
				CreativeID:  "cr",
				Publisher:   fmt.Sprintf("p%d.example", p),
				UserKey:     fmt.Sprintf("u%d", u),
				IPPseudonym: fmt.Sprintf("ip%d", u),
				UserAgent:   "UA",
				DataCenter:  "not-data-center",
			}
			switch {
			case u%4 == 0: // timer: fixed cadence (every other one a single repeated instant) and signature
				im.Timestamp = base.Add(time.Duration(seen[u]*(u%8)) * 30 * time.Second)
				seen[u]++
				im.Exposure = 2 * time.Second
				im.VisibilityMeasured = u%8 == 0
				im.MaxVisibleFraction = 0.35
			default:
				im.Timestamp = base.Add(time.Duration(rng.Intn(500)) * 10 * time.Second) // coarse: duplicates occur
				im.Exposure = time.Duration(rng.Intn(4000)) * time.Millisecond
				im.VisibilityMeasured = rng.Intn(3) > 0
				im.MaxVisibleFraction = rng.Float64()
			}
			if p%3 == 0 { // stacked placement
				im.MaxVisibleFraction *= 0.05
			}
			if u%5 == 0 && rng.Intn(4) == 0 {
				im.DataCenter = "deny-list"
			}
			if _, err := st.Insert(im); err != nil {
				t.Fatal(err)
			}
		}
		for i, n := 0, rng.Intn(6); i < n; i++ {
			_, err := st.InsertConversion(store.Conversion{
				CampaignID: campaigns[rng.Intn(len(campaigns))],
				UserKey:    fmt.Sprintf("u%d", rng.Intn(users+2)), // sometimes a user never exposed
				Action:     "purchase",
				Timestamp:  base,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		a := newAuditor(t, st, fakeMeta{})
		for _, cid := range append([]string{"", "never-seen"}, campaigns...) {
			res := checkBehaviorOracle(t, a, cid)
			flaggedUsers += len(res.BotUsers)
			flaggedPubs += len(res.InflatedPublishers)
		}
	}
	if flaggedUsers == 0 || flaggedPubs == 0 {
		t.Fatalf("generator too tame: %d bot users, %d inflated publishers flagged", flaggedUsers, flaggedPubs)
	}
}

// TestPoolingFoldMatchesOracleRandomized drives seeded random reports
// through both folds: duplicate rows, unattributed and exchange rows,
// sellers spanning fewer than, exactly and more than K owner groups,
// publishers sharing a group, plus the nil and empty reports.
func TestPoolingFoldMatchesOracleRandomized(t *testing.T) {
	dir := adnet.SellerRegistry{}
	checkPoolingOracle(t, "c", nil, dir, DefaultMaxGroupSpan)
	checkPoolingOracle(t, "c", &adnet.VendorReport{}, dir, DefaultMaxGroupSpan)

	flagged, atLimit := 0, 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		domains := make([]string, 2+rng.Intn(30))
		for i := range domains {
			domains[i] = fmt.Sprintf("site%d-%d.example", seed, i)
		}
		rep := &adnet.VendorReport{CampaignID: "c"}
		for i, n := 0, rng.Intn(200); i < n; i++ {
			pub := domains[rng.Intn(len(domains))]
			row := adnet.ReportRow{Publisher: pub, Impressions: int64(rng.Intn(50))}
			switch rng.Intn(6) {
			case 0: // unattributed
			case 1:
				row.SellerID = adnet.ExchangeSellerID
			case 2:
				row.SellerID = adnet.OwnerSellerID(adnet.OwnerGroupOf(pub))
			case 3:
				row.SellerID = fmt.Sprintf("pool-%d", rng.Intn(3))
			default:
				row.SellerID = adnet.DirectSellerID(pub)
			}
			rep.Rows = append(rep.Rows, row)
		}
		// One seller at exactly K distinct groups: never flagged.
		seen := map[string]bool{}
		for i := 0; len(seen) < DefaultMaxGroupSpan; i++ {
			pub := fmt.Sprintf("limit%d-%d.example", seed, i)
			seen[adnet.OwnerGroupOf(pub)] = true
			rep.Rows = append(rep.Rows, adnet.ReportRow{Publisher: pub, SellerID: "at-limit", Impressions: 1})
		}
		rng.Shuffle(len(rep.Rows), func(i, j int) { rep.Rows[i], rep.Rows[j] = rep.Rows[j], rep.Rows[i] })

		res := checkPoolingOracle(t, "c", rep, dir, DefaultMaxGroupSpan)
		flagged += len(res.PooledSellers)
		for _, ps := range res.PooledSellers {
			if ps.SellerID == "at-limit" {
				t.Fatalf("seed %d: seller at exactly K groups flagged: %+v", seed, ps)
			}
		}
		if res.MaxGroupSpan >= DefaultMaxGroupSpan {
			atLimit++
		}
		// A fake directory too: the fold must not depend on the registry.
		checkPoolingOracle(t, "c", rep, fakeDirectory{exchange: "pool-0", groups: map[string]string{
			domains[0]: "g0", domains[1]: "g0",
		}}, 1)
	}
	if flagged == 0 || atLimit == 0 {
		t.Fatalf("generator too tame: %d pooled sellers, %d reports reaching K", flagged, atLimit)
	}
}
