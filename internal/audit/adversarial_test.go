package audit

import (
	"math"
	"testing"
	"time"

	"adaudit/internal/adnet"
	"adaudit/internal/store"
)

// Unit tests for the three adversarial dimensions, against both a
// hand-rolled directory (full control of authorization outcomes) and
// the real simulated registry. The end-to-end precision/recall
// contract lives in internal/simtest; these pin the pure folds.

// fakeDirectory authorizes explicit (publisher, seller) pairs, knows
// one exchange, and maps publishers to owner groups by table.
type fakeDirectory struct {
	authorized map[[2]string]bool
	exchange   string
	groups     map[string]string
}

func (d fakeDirectory) Authorized(pub, seller string) bool {
	return seller == d.exchange || d.authorized[[2]string{pub, seller}]
}
func (d fakeDirectory) KnownExchange(seller string) bool { return seller == d.exchange }
func (d fakeDirectory) OwnerGroup(pub string) string {
	if g, ok := d.groups[pub]; ok {
		return g
	}
	return "group-" + pub
}

func TestCadenceCV(t *testing.T) {
	base := time.Unix(1700000000, 0)
	at := func(secs ...float64) []int64 {
		ts := make([]int64, len(secs))
		for i, s := range secs {
			ts[i] = base.Add(time.Duration(s * float64(time.Second))).UnixNano()
		}
		return ts
	}
	if cv := CadenceCV(at(0, 30)); !math.IsInf(cv, 1) {
		t.Errorf("two timestamps: cv = %v, want +Inf", cv)
	}
	if cv := CadenceCV(at(0, 0, 0)); cv != 0 {
		t.Errorf("repeated timestamp: cv = %v, want 0", cv)
	}
	if cv := CadenceCV(at(0, 30, 60, 90, 120)); cv != 0 {
		t.Errorf("perfect timer: cv = %v, want 0", cv)
	}
	// Unsorted input: the fold sorts in place.
	if cv := CadenceCV(at(90, 0, 60, 120, 30)); cv != 0 {
		t.Errorf("unsorted perfect timer: cv = %v, want 0", cv)
	}
	if cv := CadenceCV(at(0, 10, 50, 51, 200)); cv <= BehaviorMaxCadenceCV {
		t.Errorf("organic gaps: cv = %v, should exceed the flag threshold", cv)
	}
}

func TestSellerAuditFromReport(t *testing.T) {
	dir := fakeDirectory{
		authorized: map[[2]string]bool{
			{"good.example", "direct:good"}: true,
		},
		exchange: "open-exchange",
	}
	rep := &adnet.VendorReport{Rows: []adnet.ReportRow{
		{Publisher: "good.example", SellerID: "direct:good", Impressions: 100},
		{Publisher: "good.example", SellerID: "open-exchange", Impressions: 40},
		{Publisher: "good.example", SellerID: "direct:evil", Impressions: 7},
		{Publisher: "good.example", SellerID: "direct:evil", Impressions: 3},
		{Publisher: "legacy.example", Impressions: 9}, // no attribution
	}}
	res := SellerAuditFromReport("c", rep, dir)
	if res.RowsChecked != 4 || res.UnattributedRows != 1 {
		t.Fatalf("rows checked/unattributed = %d/%d, want 4/1", res.RowsChecked, res.UnattributedRows)
	}
	if res.AuthorizedImpressions != 140 || res.UnauthorizedImpressions != 10 {
		t.Fatalf("authorized/unauthorized = %d/%d, want 140/10",
			res.AuthorizedImpressions, res.UnauthorizedImpressions)
	}
	// The two evil rows merge into one pair with summed impressions.
	if len(res.UnauthorizedPairs) != 1 {
		t.Fatalf("pairs = %+v, want one merged pair", res.UnauthorizedPairs)
	}
	p := res.UnauthorizedPairs[0]
	if p.Publisher != "good.example" || p.SellerID != "direct:evil" || p.Impressions != 10 {
		t.Fatalf("pair = %+v", p)
	}
	if got := res.UnauthorizedRate(); math.Abs(got-10.0/150.0) > 1e-12 {
		t.Fatalf("unauthorized rate = %v", got)
	}

	empty := SellerAuditFromReport("c", nil, dir)
	if empty.RowsChecked != 0 || len(empty.UnauthorizedPairs) != 0 {
		t.Fatalf("nil report not empty: %+v", empty)
	}
}

func TestSellerAuditAgainstRegistry(t *testing.T) {
	// The simulated registry's three declared forms all pass; a foreign
	// direct account does not.
	pub := "news-site.example"
	rep := &adnet.VendorReport{Rows: []adnet.ReportRow{
		{Publisher: pub, SellerID: adnet.DirectSellerID(pub), Impressions: 1},
		{Publisher: pub, SellerID: adnet.OwnerSellerID(adnet.OwnerGroupOf(pub)), Impressions: 1},
		{Publisher: pub, SellerID: adnet.ExchangeSellerID, Impressions: 1},
		{Publisher: pub, SellerID: adnet.DirectSellerID("other.example"), Impressions: 1},
	}}
	res := SellerAuditFromReport("c", rep, adnet.SellerRegistry{})
	if res.AuthorizedImpressions != 3 || res.UnauthorizedImpressions != 1 {
		t.Fatalf("authorized/unauthorized = %d/%d, want 3/1",
			res.AuthorizedImpressions, res.UnauthorizedImpressions)
	}
}

func TestPoolingFromReport(t *testing.T) {
	dir := fakeDirectory{exchange: "open-exchange", groups: map[string]string{
		"a.example": "g1", "b.example": "g2", "c.example": "g3",
		"d.example": "g4", "e.example": "g4", // same group: no span growth
	}}
	rep := &adnet.VendorReport{Rows: []adnet.ReportRow{
		{Publisher: "a.example", SellerID: "pool-x", Impressions: 5},
		{Publisher: "b.example", SellerID: "pool-x", Impressions: 5},
		{Publisher: "c.example", SellerID: "pool-x", Impressions: 5},
		{Publisher: "d.example", SellerID: "pool-x", Impressions: 5},
		{Publisher: "e.example", SellerID: "pool-x", Impressions: 5},
		// A narrow seller and the exchange never flag, whatever they span.
		{Publisher: "a.example", SellerID: "direct:a", Impressions: 9},
		{Publisher: "a.example", SellerID: "open-exchange", Impressions: 9},
		{Publisher: "b.example", SellerID: "open-exchange", Impressions: 9},
		{Publisher: "c.example", SellerID: "open-exchange", Impressions: 9},
		{Publisher: "d.example", SellerID: "open-exchange", Impressions: 9},
		{Publisher: "legacy.example", Impressions: 9},
	}}
	res := PoolingFromReport("c", rep, dir, 3)
	if res.SellersChecked != 2 { // pool-x and direct:a; the exchange is exempt
		t.Fatalf("sellers checked = %d, want 2", res.SellersChecked)
	}
	if res.MaxGroupSpan != 4 || res.GroupLimit != 3 {
		t.Fatalf("span/limit = %d/%d, want 4/3", res.MaxGroupSpan, res.GroupLimit)
	}
	if len(res.PooledSellers) != 1 {
		t.Fatalf("pooled sellers = %+v, want exactly pool-x", res.PooledSellers)
	}
	ps := res.PooledSellers[0]
	if ps.SellerID != "pool-x" || ps.OwnerGroups != 4 || ps.Publishers != 5 || ps.Impressions != 25 {
		t.Fatalf("pooled footprint = %+v", ps)
	}

	// At the limit (span == K) nothing flags.
	within := PoolingFromReport("c", rep, dir, 4)
	if len(within.PooledSellers) != 0 {
		t.Fatalf("span == limit flagged: %+v", within.PooledSellers)
	}
	empty := PoolingFromReport("c", nil, dir, 3)
	if empty.SellersChecked != 0 || len(empty.PooledSellers) != 0 {
		t.Fatalf("nil report not empty: %+v", empty)
	}
}

// behaviorFixture builds a State with one perfect timer bot, one
// organic heavy user, and one stacked publisher hosting the organic
// user's impressions. The bot's rows are slots 0-5, the human's 6-11;
// mut, if non-nil, edits a row before it is inserted.
func behaviorFixture(mut func(slot int, im *store.Impression)) *State {
	base := time.Unix(1700000000, 0)
	s := NewState()
	add := func(user, pub string, at time.Time, exposure time.Duration, frac float64) {
		im := store.Impression{
			UserKey: user, Publisher: pub, IPPseudonym: "ip-" + user, Timestamp: at, Exposure: exposure,
			VisibilityMeasured: true, MaxVisibleFraction: frac, DataCenter: "not-data-center",
		}
		if mut != nil {
			mut(s.Len(), &im)
		}
		s.Insert(&im)
	}
	for i := 0; i < 6; i++ { // the timer
		add("bot", "botfarm.example", base.Add(time.Duration(i)*45*time.Second), 2*time.Second, 0.35)
	}
	organic := []float64{0, 11, 55, 300, 1800, 1900} // bursty human gaps
	for i, g := range organic {                      // the human, on the stacked placement
		add("human", "stacked.example", base.Add(time.Duration(g*float64(time.Second))),
			time.Duration(3+i)*time.Second, 0.04)
	}
	return s
}

// The two tests below pinned BehaviorFromState, the map-fed driver of
// behaviorFold; they now drive the same fold through State.Behavior
// with the same expectations.
func TestBehaviorFoldBotScoring(t *testing.T) {
	res := behaviorFixture(nil).Behavior("c")
	if res.Users != 2 || res.UsersScored != 2 || res.Impressions != 12 {
		t.Fatalf("users/scored/imps = %d/%d/%d", res.Users, res.UsersScored, res.Impressions)
	}
	if len(res.BotUsers) != 1 || res.BotUsers[0].UserKey != "bot" {
		t.Fatalf("bot users = %+v, want exactly the timer", res.BotUsers)
	}
	bot := res.BotUsers[0]
	if bot.Impressions != 6 || bot.CadenceCV != 0 || bot.DataCenter {
		t.Fatalf("bot = %+v", bot)
	}
	if res.ResidentialBotUsers != 1 || res.BotImpressions != 6 {
		t.Fatalf("residential/imps = %d/%d", res.ResidentialBotUsers, res.BotImpressions)
	}

	// A single conversion acquits the same signature.
	s := behaviorFixture(nil)
	s.Convert("bot")
	if got := s.Behavior("c"); len(got.BotUsers) != 0 {
		t.Fatalf("converting timer still flagged: %+v", got.BotUsers)
	}

	// Exposure variance acquits too — here arriving as an exposure merge.
	s = behaviorFixture(nil)
	s.Update(0, &store.Impression{Exposure: 2500 * time.Millisecond, VisibilityMeasured: true, MaxVisibleFraction: 0.35}, store.MergePrev{})
	if got := s.Behavior("c"); len(got.BotUsers) != 0 {
		t.Fatalf("varying-exposure timer still flagged: %+v", got.BotUsers)
	}

	// A DC-caught bot keeps the flag but is not counted residential.
	got := behaviorFixture(func(slot int, im *store.Impression) {
		if slot == 3 {
			im.DataCenter = "deny-list"
		}
	}).Behavior("c")
	if len(got.BotUsers) != 1 || !got.BotUsers[0].DataCenter || got.ResidentialBotUsers != 0 {
		t.Fatalf("dc bot = %+v residential = %d", got.BotUsers, got.ResidentialBotUsers)
	}
}

func TestBehaviorFoldInflation(t *testing.T) {
	res := behaviorFixture(nil).Behavior("c")
	// Both publishers have 6 measured impressions and full viewable
	// share; only the stacked one sits at 1-px fractions.
	if res.Publishers != 2 || res.PublishersScored != 2 {
		t.Fatalf("publishers/scored = %d/%d", res.Publishers, res.PublishersScored)
	}
	if len(res.InflatedPublishers) != 1 || res.InflatedPublishers[0].Publisher != "stacked.example" {
		t.Fatalf("inflated = %+v, want exactly stacked.example", res.InflatedPublishers)
	}
	p := res.InflatedPublishers[0]
	if p.Impressions != 6 || p.Measured != 6 || p.ViewableShare != 1 ||
		math.Abs(p.MeanVisibleFraction-0.04) > 1e-12 {
		t.Fatalf("inflated footprint = %+v", p)
	}
	if res.InflatedImpressions != 6 {
		t.Fatalf("inflated imps = %d", res.InflatedImpressions)
	}

	// Raising the fractions above the 1-px band clears the flag.
	// (the "human" user's signature is still non-degenerate: exposures vary)
	got := behaviorFixture(func(slot int, im *store.Impression) {
		if im.Publisher == "stacked.example" {
			im.MaxVisibleFraction = 0.5
		}
	}).Behavior("c")
	if len(got.InflatedPublishers) != 0 {
		t.Fatalf("visible placement still flagged: %+v", got.InflatedPublishers)
	}

	// Short exposures (below the viewability threshold) clear it too:
	// inflation requires looking viewable by time.
	got = behaviorFixture(func(slot int, im *store.Impression) {
		if im.Publisher == "stacked.example" {
			im.Exposure = 200 * time.Millisecond
		}
	}).Behavior("c")
	if len(got.InflatedPublishers) != 0 {
		t.Fatalf("short-exposure placement still flagged: %+v", got.InflatedPublishers)
	}
}
