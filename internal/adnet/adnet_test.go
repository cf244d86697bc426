package adnet

import (
	"slices"
	"testing"
	"time"

	"adaudit/internal/ipmeta"
	"adaudit/internal/publisher"
)

// testNetwork builds a small-but-realistic network fixture shared by
// the package tests.
func testNetwork(t *testing.T) *Network {
	t.Helper()
	pubs, err := publisher.NewUniverse(publisher.Config{Seed: 11, NumPublishers: 4000})
	if err != nil {
		t.Fatal(err)
	}
	ips, err := ipmeta.NewUniverse(ipmeta.UniverseConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{Seed: 11, Publishers: pubs, IPs: ips})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func testCampaign(id string, imps int) Campaign {
	c := Campaign{
		ID: id, CreativeID: "cr", Keywords: []string{"football"},
		CPM: 0.10, Geo: "ES", Impressions: imps,
		Start: date(2016, time.April, 2), End: date(2016, time.April, 3),
	}
	return c
}

func TestCampaignValidate(t *testing.T) {
	good := testCampaign("c", 100)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Campaign){
		func(c *Campaign) { c.ID = "" },
		func(c *Campaign) { c.Keywords = nil },
		func(c *Campaign) { c.CPM = 0 },
		func(c *Campaign) { c.Geo = "" },
		func(c *Campaign) { c.Impressions = 0 },
		func(c *Campaign) { c.End = c.Start },
	}
	for i, mutate := range bad {
		c := testCampaign("c", 100)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid campaign accepted", i)
		}
	}
}

func TestCampaignBudget(t *testing.T) {
	c := testCampaign("c", 10000)
	if got := c.Budget(); got != 1.0 {
		t.Fatalf("Budget = %v, want 1.0 (10000 imps at 0.10 CPM)", got)
	}
}

func TestPaperCampaignsMatchTable1(t *testing.T) {
	cs := PaperCampaigns()
	if len(cs) != 8 {
		t.Fatalf("PaperCampaigns returned %d campaigns", len(cs))
	}
	totals := 0
	byID := map[string]Campaign{}
	for _, c := range cs {
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		byID[c.ID] = c
		totals += c.Impressions
	}
	// Table 1 column checks.
	if byID["Research-010"].Impressions != 5117 || byID["Research-010"].CPM != 0.10 {
		t.Fatalf("Research-010 = %+v", byID["Research-010"])
	}
	if byID["Football-030"].CPM != 0.30 || byID["Football-030"].Impressions != 24461 {
		t.Fatalf("Football-030 = %+v", byID["Football-030"])
	}
	if byID["Russia"].Geo != "RU" || byID["Russia"].CPM != 0.01 {
		t.Fatalf("Russia = %+v", byID["Russia"])
	}
	if byID["General-005"].Geo != "ES" || len(byID["General-005"].Keywords) != 3 {
		t.Fatalf("General-005 = %+v", byID["General-005"])
	}
	// "around 160K ad impressions" overall.
	if totals != 5117+42399+33730+24461+4096+1178+8810+42357 {
		t.Fatalf("total impressions = %d", totals)
	}
}

func TestRunDeliversExactCount(t *testing.T) {
	n := testNetwork(t)
	res, err := n.Run(testCampaign("count-test", 2000))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deliveries) != 2000 {
		t.Fatalf("delivered %d impressions, want 2000", len(res.Deliveries))
	}
}

func TestRunDeterminism(t *testing.T) {
	n1, n2 := testNetwork(t), testNetwork(t)
	r1, err := n1.Run(testCampaign("det", 500))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := n2.Run(testCampaign("det", 500))
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Deliveries {
		a, b := r1.Deliveries[i], r2.Deliveries[i]
		if a.Publisher.Domain != b.Publisher.Domain || a.Device.Addr != b.Device.Addr ||
			!a.At.Equal(b.At) || a.Exposure != b.Exposure {
			t.Fatalf("deliveries diverged at %d", i)
		}
	}
}

func TestRunRejectsInvalidCampaign(t *testing.T) {
	n := testNetwork(t)
	c := testCampaign("x", 10)
	c.CPM = -1
	if _, err := n.Run(c); err == nil {
		t.Fatal("invalid campaign ran")
	}
}

func TestDeliveriesWithinFlightWindow(t *testing.T) {
	n := testNetwork(t)
	c := testCampaign("window", 1500)
	res, err := n.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Deliveries {
		if d.At.Before(c.Start) || d.At.After(c.End) {
			t.Fatalf("delivery at %v outside flight [%v, %v]", d.At, c.Start, c.End)
		}
	}
}

func TestContextualPlacementLandsOnRelevantInventory(t *testing.T) {
	n := testNetwork(t)
	res, err := n.Run(testCampaign("ctx", 3000))
	if err != nil {
		t.Fatal(err)
	}
	m := n.Matcher()
	placed := 0
	for _, d := range res.Deliveries {
		if !d.PlacedContextually {
			continue
		}
		placed++
		if !m.Relevant(res.Campaign.Keywords, d.Publisher.Keywords, d.Publisher.Topics) {
			t.Fatalf("contextual placement on irrelevant publisher %s (%s)",
				d.Publisher.Domain, d.Publisher.Vertical)
		}
	}
	if placed == 0 {
		t.Fatal("football campaign placed nothing contextually")
	}
}

func TestViewabilityMatchesPolicy(t *testing.T) {
	n := testNetwork(t)
	res, err := n.Run(testCampaign("view", 8000))
	if err != nil {
		t.Fatal(err)
	}
	pol := res.Policy
	humanViewable, humanTotal := 0, 0
	for _, d := range res.Deliveries {
		if d.Device.Bot {
			continue
		}
		humanTotal++
		if d.AuditViewable() {
			humanViewable++
		}
	}
	got := float64(humanViewable) / float64(humanTotal)
	if got < pol.ViewProb-0.04 || got > pol.ViewProb+0.04 {
		t.Fatalf("human viewability = %v, want ~%v", got, pol.ViewProb)
	}
}

func TestVendorViewableImpliesAuditViewable(t *testing.T) {
	n := testNetwork(t)
	res, err := n.Run(testCampaign("vv", 3000))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Deliveries {
		if d.VendorViewable && !d.AuditViewable() {
			t.Fatal("vendor counted a sub-second impression as viewable")
		}
	}
}

func TestBotTrafficUsesDataCenterAddresses(t *testing.T) {
	n := testNetwork(t)
	res, err := n.Run(testCampaign("bots", 6000))
	if err != nil {
		t.Fatal(err)
	}
	cls := &ipmeta.Classifier{DB: nil, DenyList: nil}
	_ = cls
	bots := 0
	for _, d := range res.Deliveries {
		if !d.Device.Bot {
			continue
		}
		bots++
		if d.Device.Country != "ZZ" {
			t.Fatalf("bot device has country %q", d.Device.Country)
		}
		if d.Device.BeaconBlocked {
			t.Fatal("bot device marked beacon-blocked")
		}
	}
	if bots == 0 {
		t.Fatal("football campaign attracted no bot traffic")
	}
	frac := float64(bots) / float64(len(res.Deliveries))
	if frac < 0.02 || frac > 0.25 {
		t.Fatalf("bot fraction = %v, want high-but-plausible for football", frac)
	}
}

func TestFrequencyCapAblation(t *testing.T) {
	pubs, _ := publisher.NewUniverse(publisher.Config{Seed: 3, NumPublishers: 2000})
	ips, _ := ipmeta.NewUniverse(ipmeta.UniverseConfig{Seed: 3})
	pol := DefaultPolicy()
	pol.FrequencyCap = 10
	n, err := New(Config{Seed: 3, Publishers: pubs, IPs: ips, Policy: &pol})
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.Run(testCampaign("capped", 5000))
	if err != nil {
		t.Fatal(err)
	}
	perUser := map[string]int{}
	for _, d := range res.Deliveries {
		perUser[d.Device.Addr.String()+"|"+d.Device.UserAgent]++
	}
	for u, c := range perUser {
		if c > 10 {
			t.Fatalf("user %s received %d impressions despite cap 10", u, c)
		}
	}
}

func TestNoCapYieldsHeavyTail(t *testing.T) {
	n := testNetwork(t)
	res, err := n.Run(testCampaign("uncapped", 20000))
	if err != nil {
		t.Fatal(err)
	}
	perUser := map[string]int{}
	for _, d := range res.Deliveries {
		perUser[d.Device.Addr.String()+"|"+d.Device.UserAgent]++
	}
	over10 := 0
	for _, c := range perUser {
		if c > 10 {
			over10++
		}
	}
	if over10 == 0 {
		t.Fatal("no user above 10 impressions: repeat-exposure tail missing")
	}
}

func TestGeoRestrictsInventory(t *testing.T) {
	n := testNetwork(t)
	ru := testCampaign("ru", 2000)
	ru.Geo = "RU"
	ru.Keywords = []string{"research"}
	res, err := n.Run(ru)
	if err != nil {
		t.Fatal(err)
	}
	// Every delivered publisher must serve RU per the stable geo hash.
	for _, d := range res.Deliveries {
		if !n.servesGeo(d.Publisher.Domain, "RU") {
			t.Fatalf("publisher %s does not serve RU", d.Publisher.Domain)
		}
	}
	// And the RU slice must be a strict subset of inventory.
	totalRU := 0
	for i := 0; i < n.Publishers().Len(); i++ {
		if n.servesGeo(n.Publishers().At(i).Domain, "RU") {
			totalRU++
		}
	}
	if totalRU >= n.Publishers().Len() {
		t.Fatal("RU sees the full inventory")
	}
	// Human devices must be in-geo.
	for _, d := range res.Deliveries {
		if !d.Device.Bot && d.Device.Country != "RU" {
			t.Fatalf("human device in %q for RU campaign", d.Device.Country)
		}
	}
}

func TestNewValidatesConfig(t *testing.T) {
	pubs, _ := publisher.NewUniverse(publisher.Config{Seed: 1, NumPublishers: 1000})
	ips, _ := ipmeta.NewUniverse(ipmeta.UniverseConfig{Seed: 1})
	if _, err := New(Config{Seed: 1, IPs: ips}); err == nil {
		t.Fatal("missing publishers accepted")
	}
	if _, err := New(Config{Seed: 1, Publishers: pubs}); err == nil {
		t.Fatal("missing IPs accepted")
	}
}

func TestDefaultCampaignPolicyForUnknownCampaign(t *testing.T) {
	n := testNetwork(t)
	c := testCampaign("not-in-table-1", 500)
	res, err := n.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy.ContextStrength <= 0 {
		t.Fatalf("derived policy has no context strength: %+v", res.Policy)
	}
	if res.Policy.ViewProb <= 0 || res.Policy.ViewProb >= 1 {
		t.Fatalf("derived ViewProb = %v", res.Policy.ViewProb)
	}
}

func TestConversionsOnlyHumansWithinOptimalFrequency(t *testing.T) {
	n := testNetwork(t)
	res, err := n.Run(testCampaign("conv-model", 15000))
	if err != nil {
		t.Fatal(err)
	}
	exposures := map[string]int{}
	conversions := 0
	for _, d := range res.Deliveries {
		key := d.Device.Addr.String() + "|" + d.Device.UserAgent
		exposures[key]++
		if !d.Converted {
			continue
		}
		conversions++
		if d.Device.Bot {
			t.Fatal("bot converted")
		}
		if exposures[key] > OptimalFrequency {
			t.Fatalf("conversion on exposure %d, beyond the optimal-frequency window", exposures[key])
		}
		if d.ConversionValueCents <= 0 {
			t.Fatalf("conversion without value: %+v", d)
		}
		if !d.ConvertedAt.After(d.At) {
			t.Fatalf("conversion at %v not after impression at %v", d.ConvertedAt, d.At)
		}
	}
	if conversions == 0 {
		t.Fatal("campaign produced no conversions")
	}
}

func TestExclusionListRespected(t *testing.T) {
	n := testNetwork(t)
	// First flight: find which publishers the campaign lands on.
	c := testCampaign("excl", 3000)
	res, err := n.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, d := range res.Deliveries {
		counts[d.Publisher.Domain]++
	}
	// Exclude the campaign's top publishers and re-fly.
	var excluded []string
	for dom, cnt := range counts {
		if cnt >= 5 {
			excluded = append(excluded, dom)
		}
	}
	if len(excluded) == 0 {
		t.Fatal("no repeat publishers to exclude")
	}
	c.ExcludedPublishers = excluded
	res2, err := n.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res2.Deliveries {
		if slices.Contains(c.ExcludedPublishers, d.Publisher.Domain) {
			t.Fatalf("excluded publisher %s still received impressions", d.Publisher.Domain)
		}
	}
}

func TestBrandSafetyLoopReducesExposure(t *testing.T) {
	// The paper's motivation end to end: audit the first flight, build
	// the exclusion list the vendor report cannot give you, and verify
	// the re-flight avoids every identified unsafe publisher.
	n := testNetwork(t)
	c := testCampaign("loop", 8000)
	res, err := n.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	var unsafeSeen []string
	unsafeImps := 0
	for _, d := range res.Deliveries {
		if d.Publisher.BrandUnsafe {
			unsafeImps++
			unsafeSeen = append(unsafeSeen, d.Publisher.Domain)
		}
	}
	if unsafeImps == 0 {
		t.Skip("no unsafe exposure in this run")
	}
	c.ExcludedPublishers = unsafeSeen
	res2, err := n.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res2.Deliveries {
		if slices.Contains(c.ExcludedPublishers, d.Publisher.Domain) {
			t.Fatalf("blacklisted unsafe publisher %s hit again", d.Publisher.Domain)
		}
	}
}

func TestAudienceTargetingMode(t *testing.T) {
	n := testNetwork(t)
	ctxCamp := testCampaign("mode-ctx", 25000)
	audCamp := testCampaign("mode-aud", 25000)
	audCamp.Targeting = TargetingAudience

	ctxRes, err := n.Run(ctxCamp)
	if err != nil {
		t.Fatal(err)
	}
	audRes, err := n.Run(audCamp)
	if err != nil {
		t.Fatal(err)
	}

	// Audience mode never places contextually...
	for _, d := range audRes.Deliveries {
		if d.PlacedContextually {
			t.Fatal("audience campaign placed contextually")
		}
	}
	// ...while the contextual campaign does.
	placed := 0
	for _, d := range ctxRes.Deliveries {
		if d.PlacedContextually {
			placed++
		}
	}
	if placed == 0 {
		t.Fatal("contextual campaign placed nothing contextually")
	}

	// Audience mode reaches far more interested users.
	interestedShare := func(res *CampaignResult) float64 {
		humans, interested := 0, 0
		for _, d := range res.Deliveries {
			if d.Device.Bot {
				continue
			}
			humans++
			if d.Device.Interested {
				interested++
			}
		}
		return float64(interested) / float64(humans)
	}
	ctxShare, audShare := interestedShare(ctxRes), interestedShare(audRes)
	if audShare < 0.55 || audShare > 0.85 {
		t.Fatalf("audience interested share = %v, want ~0.70", audShare)
	}
	if ctxShare > 0.30 {
		t.Fatalf("contextual interested share = %v, want ~0.15", ctxShare)
	}

	// Interest lifts conversions: the audience campaign converts more
	// per impression.
	conv := func(res *CampaignResult) int {
		n := 0
		for _, d := range res.Deliveries {
			if d.Converted {
				n++
			}
		}
		return n
	}
	// Expected lift: interested users convert at 3x, so the audience
	// campaign (~70% interested) should clearly beat the contextual one
	// (~15% interested) at this sample size.
	if float64(conv(audRes)) < 1.2*float64(conv(ctxRes)) {
		t.Fatalf("audience conversions (%d) should clearly exceed contextual (%d)",
			conv(audRes), conv(ctxRes))
	}
}

func TestTargetingModeString(t *testing.T) {
	if TargetingContextual.String() != "contextual" || TargetingAudience.String() != "audience" {
		t.Fatal("mode strings wrong")
	}
	if TargetingMode(9).String() != "TargetingMode(9)" {
		t.Fatal("unknown mode string wrong")
	}
}
