package audit

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"adaudit/internal/adnet"
	"adaudit/internal/semsim"
	"adaudit/internal/stats"
	"adaudit/internal/store"
)

// fakeMeta is a hand-built metadata source for unit tests.
type fakeMeta map[string]PublisherMeta

func (m fakeMeta) PublisherMeta(domain string) (PublisherMeta, bool) {
	meta, ok := m[domain]
	return meta, ok
}

var base = time.Date(2016, 3, 29, 10, 0, 0, 0, time.UTC)

func addImp(t *testing.T, st *store.Store, campaign, pub, user string, at time.Time, exposure time.Duration, dc string) {
	t.Helper()
	if dc == "" {
		dc = "not-data-center"
	}
	_, err := st.Insert(store.Impression{
		CampaignID: campaign, CreativeID: "cr", Publisher: pub,
		PageURL: "http://" + pub + "/", UserAgent: "UA",
		IPPseudonym: "ip-" + user, UserKey: user,
		Timestamp: at, Exposure: exposure, DataCenter: dc,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func newAuditor(t *testing.T, st *store.Store, meta MetadataSource) *Auditor {
	t.Helper()
	a, err := New(st, meta)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewRequiresStore(t *testing.T) {
	if _, err := New(nil, fakeMeta{}); err == nil {
		t.Fatal("nil store accepted")
	}
}

func TestBrandSafetyVenn(t *testing.T) {
	st := store.New()
	// Audit saw p1, p2, p3; vendor reports p2, p3, p4 (+anonymous).
	addImp(t, st, "c", "p1.es", "u1", base, time.Second, "")
	addImp(t, st, "c", "p2.es", "u1", base, time.Second, "")
	addImp(t, st, "c", "p3.es", "u2", base, time.Second, "")
	a := newAuditor(t, st, fakeMeta{"p1.es": {Unsafe: true}})

	rep := &adnet.VendorReport{
		CampaignID: "c",
		Rows: []adnet.ReportRow{
			{Publisher: "p2.es", Impressions: 1},
			{Publisher: "p3.es", Impressions: 1},
			{Publisher: "p4.es", Impressions: 2},
			{Publisher: adnet.AnonymousPublisher, Impressions: 5},
		},
	}
	res := a.BrandSafety("c", rep)
	if res.Venn.OnlyA != 1 || res.Venn.OnlyB != 1 || res.Venn.Both != 2 {
		t.Fatalf("venn = %+v", res.Venn)
	}
	if got := res.FractionUnreported(); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("FractionUnreported = %v", got)
	}
	if got := res.FractionAuditMissed(); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("FractionAuditMissed = %v", got)
	}
	if len(res.AuditOnly) != 1 || res.AuditOnly[0] != "p1.es" {
		t.Fatalf("AuditOnly = %v", res.AuditOnly)
	}
	if len(res.VendorOnly) != 1 || res.VendorOnly[0] != "p4.es" {
		t.Fatalf("VendorOnly = %v", res.VendorOnly)
	}
	if res.AnonymousImpressions != 5 {
		t.Fatalf("AnonymousImpressions = %d", res.AnonymousImpressions)
	}
	if len(res.UnsafeUnreported) != 1 || res.UnsafeUnreported[0] != "p1.es" {
		t.Fatalf("UnsafeUnreported = %v", res.UnsafeUnreported)
	}
}

// Vendor rows are keyed by (publisher, seller), so one domain can fill
// several rows: it is still one publisher, on either side of the Venn,
// for the per-campaign fold, the single-call aggregate and the report's.
func TestBrandSafetyDuplicateVendorRows(t *testing.T) {
	st := store.New()
	addImp(t, st, "c", "seen.es", "u1", base, time.Second, "")
	addImp(t, st, "c", "quiet.es", "u2", base, time.Second, "")
	a := newAuditor(t, st, fakeMeta{})
	rep := &adnet.VendorReport{CampaignID: "c", Rows: []adnet.ReportRow{
		{Publisher: "seen.es", Impressions: 3, SellerID: "direct"},
		{Publisher: "ghost.es", Impressions: 2, SellerID: "direct"},
		{Publisher: "seen.es", Impressions: 1, SellerID: "reseller"},
		{Publisher: "ghost.es", Impressions: 1, SellerID: "reseller"},
	}}
	full, err := a.FullAudit([]CampaignInput{{ID: "c", Report: rep}})
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]BrandSafetyResult{
		"campaign":         a.BrandSafety("c", rep),
		"aggregate":        a.BrandSafetyAggregate(map[string]*adnet.VendorReport{"c": rep}),
		"report campaign":  full.PerCampaign[0].BrandSafety,
		"report aggregate": full.Aggregate,
	} {
		if want := (stats.Venn{OnlyA: 1, OnlyB: 1, Both: 1}); res.Venn != want {
			t.Errorf("%s: venn = %+v, want %+v", name, res.Venn, want)
		}
		if !reflect.DeepEqual(res.VendorOnly, []string{"ghost.es"}) || !reflect.DeepEqual(res.AuditOnly, []string{"quiet.es"}) {
			t.Errorf("%s: VendorOnly = %v, AuditOnly = %v", name, res.VendorOnly, res.AuditOnly)
		}
	}
}

func TestBrandSafetyAggregatePoolsReports(t *testing.T) {
	st := store.New()
	addImp(t, st, "c1", "p1.es", "u1", base, time.Second, "")
	addImp(t, st, "c2", "p2.es", "u2", base, time.Second, "")
	a := newAuditor(t, st, nil)
	reports := map[string]*adnet.VendorReport{
		"c1": {Rows: []adnet.ReportRow{{Publisher: "p1.es", Impressions: 1}, {Publisher: adnet.AnonymousPublisher, Impressions: 3}}},
		"c2": {Rows: []adnet.ReportRow{{Publisher: adnet.AnonymousPublisher, Impressions: 4}}},
	}
	res := a.BrandSafetyAggregate(reports)
	if res.Venn.Both != 1 || res.Venn.OnlyA != 1 || res.Venn.OnlyB != 0 {
		t.Fatalf("venn = %+v", res.Venn)
	}
	if res.AnonymousImpressions != 7 {
		t.Fatalf("anon = %d", res.AnonymousImpressions)
	}
}

func TestContextAnalysis(t *testing.T) {
	st := store.New()
	// 4 impressions: 2 on a relevant pub, 1 irrelevant, 1 unknown meta.
	addImp(t, st, "c", "uni.es", "u1", base, time.Second, "")
	addImp(t, st, "c", "uni.es", "u2", base, time.Second, "")
	addImp(t, st, "c", "cook.es", "u3", base, time.Second, "")
	addImp(t, st, "c", "mystery.es", "u4", base, time.Second, "")
	meta := fakeMeta{
		// Topic "physics" is a sibling of "research" under the science
		// vertical: inside the default similarity threshold.
		"uni.es":  {Keywords: []string{"laboratorios"}, Topics: []string{"physics"}},
		"cook.es": {Keywords: []string{"recipes"}, Topics: []string{"recipes"}},
	}
	a := newAuditor(t, st, meta)
	rep := &adnet.VendorReport{TotalImpressionsCharged: 4, ContextualImpressions: 3}
	res, err := a.Context("c", []string{"research"}, rep)
	if err != nil {
		t.Fatal(err)
	}
	if res.AuditImpressions != 4 || res.MeaningfulImpressions != 2 || res.UnknownMeta != 1 {
		t.Fatalf("res = %+v", res)
	}
	if got := res.AuditFraction(); got != 0.5 {
		t.Fatalf("AuditFraction = %v", got)
	}
	if got := res.VendorFraction(); got != 0.75 {
		t.Fatalf("VendorFraction = %v", got)
	}
}

func TestContextRequiresMeta(t *testing.T) {
	a := newAuditor(t, store.New(), nil)
	a.Meta = nil
	if _, err := a.Context("c", []string{"x"}, nil); err == nil {
		t.Fatal("context without metadata ran")
	}
}

func TestPopularityBuckets(t *testing.T) {
	st := store.New()
	// p1 rank 5 (bucket 0), two impressions; p2 rank 50000 (bucket 4),
	// one impression; p3 unknown meta.
	addImp(t, st, "c", "p1.es", "u1", base, time.Second, "")
	addImp(t, st, "c", "p1.es", "u2", base, time.Second, "")
	addImp(t, st, "c", "p2.es", "u3", base, time.Second, "")
	addImp(t, st, "c", "p3.es", "u4", base, time.Second, "")
	meta := fakeMeta{
		"p1.es": {Rank: 5},
		"p2.es": {Rank: 50_000},
	}
	a := newAuditor(t, st, meta)
	res, err := a.Popularity("c", 10, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.UnknownMeta != 1 {
		t.Fatalf("UnknownMeta = %d", res.UnknownMeta)
	}
	if res.Publishers.Total != 2 || res.Impressions.Total != 3 {
		t.Fatalf("totals: pubs %d imps %d", res.Publishers.Total, res.Impressions.Total)
	}
	if got := res.TopKPublisherFraction(10_000); got != 0.5 {
		t.Fatalf("TopKPublisherFraction(10K) = %v", got)
	}
	if got := res.TopKImpressionFraction(10_000); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("TopKImpressionFraction(10K) = %v", got)
	}
}

func TestViewability(t *testing.T) {
	st := store.New()
	addImp(t, st, "c", "p.es", "u1", base, 2*time.Second, "")
	addImp(t, st, "c", "p.es", "u2", base, time.Second, "") // exactly 1s counts
	addImp(t, st, "c", "p.es", "u3", base, 300*time.Millisecond, "")
	addImp(t, st, "c", "p.es", "u4", base, 500*time.Millisecond, "")
	a := newAuditor(t, st, nil)
	res := a.Viewability("c")
	if res.Impressions != 4 || res.ViewableUB != 2 {
		t.Fatalf("res = %+v", res)
	}
	if got := res.Fraction(); got != 0.5 {
		t.Fatalf("Fraction = %v", got)
	}
	if res.ExposureSummary.N != 4 {
		t.Fatalf("summary N = %d", res.ExposureSummary.N)
	}
}

func TestFrequencyAnalysis(t *testing.T) {
	st := store.New()
	// Heavy user: 12 impressions 30 s apart in campaign c1.
	for i := 0; i < 12; i++ {
		addImp(t, st, "c1", "p.es", "heavy", base.Add(time.Duration(i)*30*time.Second), time.Second, "")
	}
	// Same user key in campaign c2: counted separately (3 impressions).
	for i := 0; i < 3; i++ {
		addImp(t, st, "c2", "p.es", "heavy", base.Add(time.Duration(i)*time.Hour), time.Second, "")
	}
	// Light user: 1 impression.
	addImp(t, st, "c1", "p.es", "light", base, time.Second, "")
	a := newAuditor(t, st, nil)
	res := a.Frequency()
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	top := res.Points[0]
	if top.UserKey != "heavy" || top.CampaignID != "c1" || top.Impressions != 12 {
		t.Fatalf("top = %+v", top)
	}
	if top.MedianInterArrival != 30*time.Second {
		t.Fatalf("median IAT = %v", top.MedianInterArrival)
	}
	if res.UsersOver10 != 1 || res.UsersOver100 != 0 {
		t.Fatalf("over10 = %d over100 = %d", res.UsersOver10, res.UsersOver100)
	}
	if res.MaxImpressions() != 12 {
		t.Fatalf("MaxImpressions = %d", res.MaxImpressions())
	}
	if got := res.MedianIATBelow(10, time.Minute); got != 1 {
		t.Fatalf("MedianIATBelow = %d", got)
	}
	// Light user has no inter-arrival.
	for _, p := range res.Points {
		if p.Impressions == 1 && p.MedianInterArrival != 0 {
			t.Fatalf("singleton user has IAT %v", p.MedianInterArrival)
		}
	}
}

func TestFrequencyUnorderedTimestamps(t *testing.T) {
	st := store.New()
	// Insert out of order; median IAT must still be computed on the
	// sorted sequence.
	addImp(t, st, "c", "p.es", "u", base.Add(2*time.Minute), time.Second, "")
	addImp(t, st, "c", "p.es", "u", base, time.Second, "")
	addImp(t, st, "c", "p.es", "u", base.Add(time.Minute), time.Second, "")
	a := newAuditor(t, st, nil)
	res := a.Frequency()
	if res.Points[0].MedianInterArrival != time.Minute {
		t.Fatalf("median IAT = %v", res.Points[0].MedianInterArrival)
	}
}

func TestFraudAnalysis(t *testing.T) {
	st := store.New()
	addImp(t, st, "c", "p1.es", "u1", base, time.Second, "not-data-center")
	addImp(t, st, "c", "p1.es", "u2", base, time.Second, "provider-db")
	addImp(t, st, "c", "p2.es", "u3", base, time.Second, "deny-list")
	addImp(t, st, "c", "p3.es", "u4", base, time.Second, "vpn-exception") // NOT fraud
	addImp(t, st, "c", "p3.es", "u5", base, time.Second, "manual")
	a := newAuditor(t, st, nil)
	res := a.Fraud("c")
	if res.Impressions != 5 || res.DataCenterImpressions != 3 {
		t.Fatalf("res = %+v", res)
	}
	if res.DistinctIPs != 5 || res.DataCenterIPs != 3 {
		t.Fatalf("IPs: %d/%d", res.DataCenterIPs, res.DistinctIPs)
	}
	if res.Publishers != 3 || res.PublishersServingDC != 3 {
		t.Fatalf("pubs: %d/%d", res.PublishersServingDC, res.Publishers)
	}
	if got := res.PctDataCenterImpressions(); got != 0.6 {
		t.Fatalf("pct imps = %v", got)
	}
	if res.ByVerdict["provider-db"] != 1 || res.ByVerdict["deny-list"] != 1 || res.ByVerdict["manual"] != 1 {
		t.Fatalf("by verdict = %v", res.ByVerdict)
	}
	if len(res.TopDCPublishers) == 0 {
		t.Fatal("no top DC publishers")
	}
}

func TestFraudVPNExceptionNotCounted(t *testing.T) {
	st := store.New()
	addImp(t, st, "c", "p.es", "u1", base, time.Second, "vpn-exception")
	a := newAuditor(t, st, nil)
	res := a.Fraud("c")
	if res.DataCenterImpressions != 0 || res.DataCenterIPs != 0 {
		t.Fatalf("VPN exception counted as fraud: %+v", res)
	}
}

func TestFullAuditRunsEverything(t *testing.T) {
	st := store.New()
	meta := fakeMeta{}
	for i := 0; i < 20; i++ {
		pub := fmt.Sprintf("p%d.es", i%5)
		meta[pub] = PublisherMeta{Rank: 100 * (i%5 + 1), Keywords: []string{"research"}, Topics: []string{"research"}}
		addImp(t, st, "c1", pub, fmt.Sprintf("u%d", i%7), base.Add(time.Duration(i)*time.Minute), time.Second, "")
	}
	a := newAuditor(t, st, meta)
	rep := &adnet.VendorReport{
		CampaignID:              "c1",
		Rows:                    []adnet.ReportRow{{Publisher: "p0.es", Impressions: 4}},
		TotalImpressionsCharged: 20,
		ContextualImpressions:   10,
	}
	full, err := a.FullAudit([]CampaignInput{{ID: "c1", Keywords: []string{"research"}, Report: rep}})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.PerCampaign) != 1 {
		t.Fatalf("per-campaign = %d", len(full.PerCampaign))
	}
	ca := full.PerCampaign[0]
	if ca.BrandSafety.Venn.SizeA() != 5 {
		t.Fatalf("audit publishers = %d", ca.BrandSafety.Venn.SizeA())
	}
	if ca.Context.AuditFraction() != 1.0 {
		t.Fatalf("context fraction = %v", ca.Context.AuditFraction())
	}
	if ca.Viewability.Impressions != 20 {
		t.Fatalf("viewability imps = %d", ca.Viewability.Impressions)
	}
	if full.Aggregate.Venn.SizeA() != 5 {
		t.Fatalf("aggregate venn = %+v", full.Aggregate.Venn)
	}
	if len(full.Frequency.Points) == 0 {
		t.Fatal("no frequency points")
	}
}

func TestFullAuditRequiresReports(t *testing.T) {
	a := newAuditor(t, store.New(), fakeMeta{})
	if _, err := a.FullAudit([]CampaignInput{{ID: "c"}}); err == nil {
		t.Fatal("missing report accepted")
	}
}

func TestMatcherDefaultsWired(t *testing.T) {
	a := newAuditor(t, store.New(), fakeMeta{})
	if a.Matcher == nil {
		t.Fatal("no default matcher")
	}
	// Default threshold must match semsim's default.
	want := semsim.NewMatcher(semsim.DefaultTaxonomy()).Threshold
	if a.Matcher.Threshold != want {
		t.Fatalf("threshold %v, want %v", a.Matcher.Threshold, want)
	}
}

func TestPopularityCPMCorrelation(t *testing.T) {
	mk := func(ranks []int, imps []int) PopularityResult {
		var r PopularityResult
		for i, rank := range ranks {
			r.ranked = append(r.ranked, rankedPublisher{rank, imps[i]})
		}
		return r
	}
	// Cheap campaign delivers mostly top ranks; expensive mostly tail:
	// strong NEGATIVE correlation.
	cheap := mk([]int{100, 2_000_000}, []int{9, 1})
	mid := mk([]int{100, 2_000_000}, []int{5, 5})
	dear := mk([]int{100, 2_000_000}, []int{1, 9})
	rho, err := PopularityCPMCorrelation(
		[]float64{0.01, 0.10, 0.30},
		[]PopularityResult{cheap, mid, dear}, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if rho > -0.99 {
		t.Fatalf("rho = %v, want ~-1", rho)
	}
	if _, err := PopularityCPMCorrelation([]float64{1}, nil, 50_000); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// Figure 3's points come out in the order of the three-key comparator —
// impressions descending, user key, campaign — although the sort works
// on 8-byte key prefixes: keys that share a prefix of 8 bytes or more,
// keys shorter than that (one a prefix of another, differing only by a
// trailing NUL), 0x00 and 0xFF bytes, and the same key in two campaigns
// all fall back to the full comparison or order by zero-padded prefix
// exactly as the strings do.
func TestFrequencyOrderMatchesComparator(t *testing.T) {
	heads := []string{"", "a", "ab", "ab\x00", "ab\x00\x00", "\xff", "\xff\xff\x00", "\x00", "1234567", "12345678", "12345678\x00",
		"12345678\xff", "123456789", "10.0.0.1|Mozilla/5.0 ", "10.0.0.1|Mozilla/5.0 (X11)", "10.0.0.1|Mozilla/4.0"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		states := map[string]*State{}
		for c := 0; c < 1+rng.Intn(4); c++ {
			s := NewState()
			for i, n := 0, rng.Intn(400); i < n; i++ {
				key := heads[rng.Intn(len(heads))]
				if rng.Intn(3) == 0 {
					key += string([]byte{byte(rng.Intn(256)), byte(rng.Intn(3))})
				}
				s.Insert(&store.Impression{
					UserKey: key, Publisher: "p.es", DataCenter: "not-data-center",
					Timestamp: base.Add(time.Duration(rng.Intn(1e6)) * time.Millisecond),
				})
			}
			states[fmt.Sprintf("c%d", c)] = s
		}
		got := FrequencyOf(states).Points
		want := slices.Clone(got)
		rng.Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
		slices.SortFunc(want, func(a, b UserFrequency) int {
			return cmp.Or(cmp.Compare(b.Impressions, a.Impressions),
				strings.Compare(a.UserKey, b.UserKey), strings.Compare(a.CampaignID, b.CampaignID))
		})
		if !reflect.DeepEqual(got, want) {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d: point %d of %d is %+v, the comparator puts %+v there", seed, i, len(got), got[i], want[i])
				}
			}
		}
		// And the permutation lost no point: each pair once, with its count.
		imps := map[[2]string]int{}
		for id, s := range states {
			for _, uid := range s.cols.UserOf {
				imps[[2]string{id, s.cols.Users.keys[uid]}]++
			}
		}
		for _, p := range got {
			pair := [2]string{p.CampaignID, p.UserKey}
			if imps[pair] != p.Impressions {
				t.Fatalf("seed %d: point %+v, the state counts %d impressions", seed, p, imps[pair])
			}
			delete(imps, pair)
		}
		if len(imps) != 0 {
			t.Fatalf("seed %d: %d (campaign, user) pairs have no point", seed, len(imps))
		}
	}
}
