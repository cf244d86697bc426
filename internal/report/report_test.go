package report

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"adaudit/internal/adnet"
	"adaudit/internal/audit"
	"adaudit/internal/stats"
)

func sampleCampaigns() []adnet.Campaign {
	return adnet.PaperCampaigns()[:2]
}

func sampleHistogram(t *testing.T, vals ...float64) *stats.Histogram {
	t.Helper()
	lb, err := stats.NewLogBuckets(10, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	h := stats.NewHistogram(lb)
	for _, v := range vals {
		h.Observe(v)
	}
	return h
}

func sampleAudits(t *testing.T) []audit.CampaignAudit {
	t.Helper()
	return []audit.CampaignAudit{
		{
			ID: "Research-010",
			BrandSafety: audit.BrandSafetyResult{
				CampaignID:           "Research-010",
				Venn:                 stats.Venn{OnlyA: 57, Both: 43, OnlyB: 10},
				AnonymousImpressions: 12,
			},
			Context: audit.ContextResult{
				AuditImpressions:      100,
				MeaningfulImpressions: 3,
				VendorClaimed:         5,
				VendorTotal:           100,
			},
			Popularity: audit.PopularityResult{
				Publishers:  sampleHistogram(t, 5, 500, 50_000),
				Impressions: sampleHistogram(t, 5, 5, 500, 50_000, 5_000_000),
			},
			Viewability: audit.ViewabilityResult{Impressions: 100, ViewableUB: 56},
			Fraud: audit.FraudResult{
				DistinctIPs: 50, DataCenterIPs: 2,
				Impressions: 100, DataCenterImpressions: 4,
				Publishers: 20, PublishersServingDC: 3,
			},
		},
		{
			ID:          "Research-020",
			Popularity:  audit.PopularityResult{Publishers: sampleHistogram(t, 7), Impressions: sampleHistogram(t, 7)},
			Viewability: audit.ViewabilityResult{Impressions: 10, ViewableUB: 5},
		},
	}
}

func sampleFrequency() audit.FrequencyResult {
	return audit.FrequencyResult{
		Points: []audit.UserFrequency{
			{CampaignID: "c", UserKey: "heavy", Impressions: 150, MedianInterArrival: 15 * time.Second},
			{CampaignID: "c", UserKey: "mid", Impressions: 12, MedianInterArrival: 5 * time.Minute},
			{CampaignID: "c", UserKey: "light", Impressions: 1},
		},
		UsersOver10:  2,
		UsersOver100: 1,
	}
}

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(&buf, sampleCampaigns()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Research-010", "0.10€", "research", "2016-03-29", "Budget"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestFigure1(t *testing.T) {
	var buf bytes.Buffer
	agg := audit.BrandSafetyResult{Venn: stats.Venn{OnlyA: 100, Both: 100, OnlyB: 20}}
	if err := Figure1(&buf, agg, sampleAudits(t)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ALL CAMPAIGNS") {
		t.Fatal("missing aggregate row")
	}
	if !strings.Contains(out, "50.00%") { // 100/200 unreported
		t.Fatalf("missing aggregate unreported pct:\n%s", out)
	}
	if !strings.Contains(out, "57.00%") { // Research-010: 57/100
		t.Fatalf("missing per-campaign pct:\n%s", out)
	}
}

func TestTable2(t *testing.T) {
	var buf bytes.Buffer
	if err := Table2(&buf, sampleAudits(t)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "3.00%") || !strings.Contains(out, "5.00%") {
		t.Fatalf("table 2 fractions missing:\n%s", out)
	}
}

func TestFigure2(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure2(&buf, sampleAudits(t)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"[1, 10)", "[10K, 100K)", "Top 50K", "publishers across rank buckets", "impressions across rank buckets"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 2 missing %q", want)
		}
	}
	if err := Figure2(&buf, nil); err == nil {
		t.Fatal("figure 2 accepted empty input")
	}
}

func TestTable3(t *testing.T) {
	var buf bytes.Buffer
	if err := Table3(&buf, sampleAudits(t)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "56.00%") {
		t.Fatalf("table 3 missing viewability:\n%s", buf.String())
	}
}

func TestFigure3(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure3(&buf, sampleFrequency()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "> 10 impressions of the same ad: 2") {
		t.Fatalf("figure 3 missing over-10 count:\n%s", out)
	}
	if !strings.Contains(out, "> 100 impressions of the same ad: 1") {
		t.Fatalf("figure 3 missing over-100 count:\n%s", out)
	}
	// Singleton users (no inter-arrival) are excluded from the bins.
	if strings.Contains(out, "[1, 2)") {
		t.Fatal("figure 3 binned singleton users")
	}
}

func TestTable5(t *testing.T) {
	audits := sampleAudits(t)
	audits[0].Sellers = audit.SellerAuditResult{
		CampaignID:              "Research-010",
		RowsChecked:             10,
		AuthorizedImpressions:   80,
		UnauthorizedImpressions: 20,
		UnauthorizedPairs: []audit.SellerPair{
			{Publisher: "premium.example", SellerID: "direct:mfa.example", Impressions: 20},
		},
	}
	audits[0].Pooling = audit.PoolingResult{
		CampaignID: "Research-010", SellersChecked: 4, MaxGroupSpan: 5, GroupLimit: 3,
		PooledSellers: []audit.PooledSeller{
			{SellerID: "pool-a", Publishers: 6, OwnerGroups: 5, Impressions: 40},
		},
	}
	audits[0].Behavior = audit.BehaviorResult{
		CampaignID: "Research-010", Impressions: 100,
		BotUsers:       []audit.BotUser{{UserKey: "timer-bot", Impressions: 24, CadenceCV: 0.001}},
		BotImpressions: 24,
		InflatedPublishers: []audit.InflatedPublisher{
			{Publisher: "stacked.example", Impressions: 15, Measured: 12,
				MeanVisibleFraction: 0.02, ViewableShare: 0.9},
		},
		InflatedImpressions: 15,
	}
	var buf bytes.Buffer
	if err := Table5(&buf, audits); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table 5",
		"20.00%", // unauthorized rate 20/100
		"unauthorized seller direct:mfa.example on premium.example (20 imps)",
		"pooled seller pool-a spans 5 owner groups over 6 publishers (40 imps)",
		"bot user timer-bot",
		"residential-proxy",
		"inflated placement stacked.example",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("table 5 missing %q:\n%s", want, out)
		}
	}
	// Clean campaigns stay single-line: no detail rows for Research-020.
	if strings.Contains(out, "Research-020: ") {
		t.Fatalf("table 5 printed detail rows for a clean campaign:\n%s", out)
	}
}

func TestTable4(t *testing.T) {
	var buf bytes.Buffer
	if err := Table4(&buf, sampleAudits(t)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "4.00%") { // 2/50 IPs
		t.Fatalf("table 4 missing IP pct:\n%s", out)
	}
	if !strings.Contains(out, "15.00%") { // 3/20 publishers
		t.Fatalf("table 4 missing publisher pct:\n%s", out)
	}
}

func TestFullRendersInPaperOrder(t *testing.T) {
	var buf bytes.Buffer
	full := &audit.FullReport{
		PerCampaign: sampleAudits(t),
		Aggregate:   audit.BrandSafetyResult{Venn: stats.Venn{OnlyA: 1, Both: 1}},
		Frequency:   sampleFrequency(),
	}
	if err := Full(&buf, sampleCampaigns(), full); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	order := []string{"Table 1", "Figure 1", "Table 2", "Figure 2", "Table 3", "Figure 3", "Table 4"}
	last := -1
	for _, marker := range order {
		idx := strings.Index(out, marker)
		if idx < 0 {
			t.Fatalf("missing %q", marker)
		}
		if idx < last {
			t.Fatalf("%q out of order", marker)
		}
		last = idx
	}
}

func TestTableConversions(t *testing.T) {
	var buf bytes.Buffer
	results := []audit.ConversionResult{
		{
			CampaignID: "c1", Impressions: 1000, Clicks: 10, Conversions: 3,
			ValueCents:            7500,
			DataCenterImpressions: 100, DataCenterClicks: 15,
			ByExposure: []audit.ExposureBucket{
				{Lo: 1, Hi: 1, Users: 100, Conversions: 1},
				{Lo: 2, Hi: 3, Users: 50, Conversions: 2},
				{Lo: 51, Hi: 1 << 30, Users: 5, Conversions: 0},
			},
		},
	}
	if err := TableConversions(&buf, results); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"conversion audit", "c1", "1.00%", // CTR 10/1000
		"75.00€", // value
		"15.00%", // DC CTR 15/100
		"2-3",    // bucket label
		"51+",    // open-ended bucket label
		"0.0100", // conv/user for bucket 1
	} {
		if !strings.Contains(out, want) {
			t.Errorf("conversion table missing %q:\n%s", want, out)
		}
	}
}

func TestTableInteractions(t *testing.T) {
	var buf bytes.Buffer
	results := []audit.InteractionResult{
		{
			CampaignID: "c1", Impressions: 1000,
			UAFlagged: 40, DCFlagged: 80, Corroborated: 30,
			SpoofedUA: 50, ResidentialAutomation: 10,
			ClickNoMove: 12, ClickNoMoveDC: 9,
			SuspiciousUsers: []string{"u1", "u2"},
		},
	}
	if err := TableInteractions(&buf, results); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"behavioural", "c1", "62.50%", "12 (9 DC)", "2"} {
		if !strings.Contains(out, want) {
			t.Errorf("interactions table missing %q:\n%s", want, out)
		}
	}
}
