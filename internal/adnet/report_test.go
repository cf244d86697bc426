package adnet

import (
	"testing"

	"adaudit/internal/stats"
)

func runForReport(t *testing.T, imps int) *CampaignResult {
	t.Helper()
	n := testNetwork(t)
	res, err := n.Run(testCampaign("report-test", imps))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// reportedPublishers returns the report's non-anonymous publisher
// domains, the list the audit's brand-safety comparison reads.
func reportedPublishers(r *VendorReport) []string {
	var out []string
	for _, row := range r.Rows {
		if row.Publisher != AnonymousPublisher {
			out = append(out, row.Publisher)
		}
	}
	return out
}

func TestReportOnlyListsViewablePlacements(t *testing.T) {
	res := runForReport(t, 5000)
	// Build the set of domains with at least one vendor-viewable
	// delivery (non-anonymous).
	viewable := map[string]bool{}
	delivered := map[string]bool{}
	for _, d := range res.Deliveries {
		if d.Publisher.Anonymous {
			continue
		}
		delivered[d.Publisher.Domain] = true
		if d.VendorViewable {
			viewable[d.Publisher.Domain] = true
		}
	}
	reported := map[string]bool{}
	for _, p := range reportedPublishers(&res.Report) {
		reported[p] = true
	}
	for p := range reported {
		if !viewable[p] {
			t.Fatalf("report lists %s which had no viewable impression", p)
		}
	}
	for p := range viewable {
		if !reported[p] {
			t.Fatalf("report misses %s which had viewable impressions", p)
		}
	}
	// The policy must actually hide some delivered publishers — this is
	// the paper's Figure 1 phenomenon.
	hidden := 0
	for p := range delivered {
		if !reported[p] {
			hidden++
		}
	}
	if hidden == 0 {
		t.Fatal("vendor report hides nothing; Figure 1 cannot reproduce")
	}
}

func TestReportMasksAnonymousInventory(t *testing.T) {
	res := runForReport(t, 8000)
	anonDelivered := false
	for _, d := range res.Deliveries {
		if d.Publisher.Anonymous && d.VendorViewable {
			anonDelivered = true
			break
		}
	}
	if !anonDelivered {
		t.Skip("no anonymous viewable deliveries in this run")
	}
	if res.Report.AnonymousImpressions() == 0 {
		t.Fatal("anonymous inventory not aggregated under anonymous.google")
	}
	for _, p := range reportedPublishers(&res.Report) {
		if p == AnonymousPublisher {
			t.Fatal("reportedPublishers leaked the anonymous label")
		}
	}
}

func TestReportChargesAllImpressionsMinusRefund(t *testing.T) {
	res := runForReport(t, 5000)
	dc := int64(0)
	for _, d := range res.Deliveries {
		if d.Device.Bot {
			dc++
		}
	}
	wantRefund := int64(float64(dc) * DefaultPolicy().RefundDataCenterFraction)
	if res.Report.RefundedImpressions != wantRefund {
		t.Fatalf("refund = %d, want %d", res.Report.RefundedImpressions, wantRefund)
	}
	if res.Report.TotalImpressionsCharged != int64(len(res.Deliveries))-wantRefund {
		t.Fatalf("charged = %d", res.Report.TotalImpressionsCharged)
	}
	// Reported (viewable) impressions are strictly fewer than charged.
	var reported int64
	for _, row := range res.Report.Rows {
		reported += row.Impressions
	}
	if reported >= res.Report.TotalImpressionsCharged {
		t.Fatalf("reported %d >= charged %d", reported, res.Report.TotalImpressionsCharged)
	}
}

func TestReportContextualCountMatchesClaims(t *testing.T) {
	res := runForReport(t, 4000)
	var claims int64
	for _, d := range res.Deliveries {
		if d.VendorClaimsContextual {
			claims++
		}
	}
	if res.Report.ContextualImpressions != claims {
		t.Fatalf("contextual = %d, want %d", res.Report.ContextualImpressions, claims)
	}
	// Football campaigns claim everything (BehavioralUplift 1.0 for the
	// calibrated paper campaigns; this test campaign derives a policy,
	// so just check claims >= placements).
	var placed int64
	for _, d := range res.Deliveries {
		if d.PlacedContextually {
			placed++
		}
	}
	if claims < placed {
		t.Fatalf("claims %d < placements %d", claims, placed)
	}
}

func TestReportRowsSorted(t *testing.T) {
	res := runForReport(t, 5000)
	rows := res.Report.Rows
	for i := 1; i < len(rows); i++ {
		if rows[i].Impressions > rows[i-1].Impressions {
			t.Fatal("report rows not sorted by impressions desc")
		}
	}
}

func TestAliasSamplerIntegration(t *testing.T) {
	// The alias sampler drives publisher selection; sanity-check its
	// distribution here at the integration level.
	rng := stats.NewRNG(5)
	s, err := stats.NewAliasSampler(rng, []float64{8, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 3)
	for i := 0; i < 50000; i++ {
		counts[s.Sample()]++
	}
	if counts[0] < counts[1]*4 || counts[0] < counts[2]*4 {
		t.Fatalf("alias sampler distribution off: %v", counts)
	}
}
