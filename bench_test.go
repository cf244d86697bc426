package adaudit

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (run with `go test -bench=. -benchmem`):
//
//	BenchmarkTable1CampaignSimulation — the 8-campaign workload (Table 1)
//	BenchmarkFigure1BrandSafetyVenn   — publisher Venn analysis (Figure 1)
//	BenchmarkTable2Context            — contextual relevance (Table 2)
//	BenchmarkFigure2Popularity        — rank distributions (Figure 2)
//	BenchmarkTable3Viewability        — exposure >= 1 s (Table 3)
//	BenchmarkFigure3FrequencyCap      — per-user frequency (Figure 3)
//	BenchmarkTable4Fraud              — data-center traffic (Table 4)
//
// Each bench measures its analysis over the full logged dataset
// (~130K impressions) and reports the paper's headline number as a
// custom metric, so the benchmark output doubles as the reproduction
// record. Ablation benches at the bottom quantify the design choices
// DESIGN.md calls out.

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"

	"adaudit/internal/adnet"
	"adaudit/internal/audit"
	"adaudit/internal/report"
	"adaudit/internal/store"
	"adaudit/internal/streamaudit"
)

// benchState is the shared 8-campaign run used by the per-artifact
// benchmarks. Building it costs a few seconds; benches that only
// analyse reuse it.
type benchState struct {
	ws      *Workspace
	run     *Run
	auditor *audit.Auditor
	inputs  []audit.CampaignInput
}

var (
	benchOnce sync.Once
	bench     benchState
)

func benchSetup(b *testing.B) *benchState {
	b.Helper()
	benchOnce.Do(func() {
		ws, err := NewWorkspace(Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		run, err := ws.Run(adnet.PaperCampaigns())
		if err != nil {
			b.Fatal(err)
		}
		auditor, err := ws.Auditor()
		if err != nil {
			b.Fatal(err)
		}
		reports := run.Outcome.Reports()
		var inputs []audit.CampaignInput
		for _, c := range run.Campaigns {
			inputs = append(inputs, audit.CampaignInput{
				ID: c.ID, Keywords: c.Keywords, Report: reports[c.ID],
			})
		}
		bench = benchState{ws: ws, run: run, auditor: auditor, inputs: inputs}
	})
	return &bench
}

// BenchmarkTable1CampaignSimulation regenerates Table 1's workload: the
// full 8-campaign delivery + beacon replay + collection pipeline
// (162,148 impressions per iteration).
func BenchmarkTable1CampaignSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ws, err := NewWorkspace(Options{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		run, err := ws.Run(adnet.PaperCampaigns())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(run.Outcome.TotalLogged()), "logged-imps")
	}
}

// BenchmarkFigure1BrandSafetyVenn regenerates Figure 1: the aggregate
// publisher Venn between the audit dataset and the vendor reports.
func BenchmarkFigure1BrandSafetyVenn(b *testing.B) {
	s := benchSetup(b)
	reports := s.run.Outcome.Reports()
	b.ResetTimer()
	var res audit.BrandSafetyResult
	for i := 0; i < b.N; i++ {
		res = s.auditor.BrandSafetyAggregate(reports)
	}
	b.ReportMetric(100*res.FractionUnreported(), "pct-unreported")  // paper: 57
	b.ReportMetric(100*res.FractionAuditMissed(), "pct-audit-miss") // paper: 16.5
}

// BenchmarkTable2Context regenerates Table 2: audit vs vendor
// contextual fractions for all 8 campaigns.
func BenchmarkTable2Context(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	var football audit.ContextResult
	for i := 0; i < b.N; i++ {
		for _, in := range s.inputs {
			res, err := s.auditor.Context(in.ID, in.Keywords, in.Report)
			if err != nil {
				b.Fatal(err)
			}
			if in.ID == "Football-010" {
				football = res
			}
		}
	}
	b.ReportMetric(100*football.AuditFraction(), "football010-audit-pct")   // paper: 64.12
	b.ReportMetric(100*football.VendorFraction(), "football010-vendor-pct") // paper: 100
}

// BenchmarkFigure2Popularity regenerates Figure 2: publisher and
// impression distributions over rank buckets for all campaigns.
func BenchmarkFigure2Popularity(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	var cheap, dear audit.PopularityResult
	for i := 0; i < b.N; i++ {
		for _, in := range s.inputs {
			res, err := s.auditor.Popularity(in.ID, 10, 10_000_000)
			if err != nil {
				b.Fatal(err)
			}
			switch in.ID {
			case "Russia":
				cheap = res
			case "Football-030":
				dear = res
			}
		}
	}
	b.ReportMetric(100*cheap.TopKImpressionFraction(50_000), "cpm001-top50k-imps-pct") // paper: 89
	b.ReportMetric(100*dear.TopKImpressionFraction(50_000), "cpm030-top50k-imps-pct")  // paper: 68
}

// BenchmarkTable3Viewability regenerates Table 3: the upper-bound
// viewability fraction per campaign.
func BenchmarkTable3Viewability(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	var f030 audit.ViewabilityResult
	for i := 0; i < b.N; i++ {
		for _, in := range s.inputs {
			res := s.auditor.Viewability(in.ID)
			if in.ID == "Football-030" {
				f030 = res
			}
		}
	}
	b.ReportMetric(100*f030.Fraction(), "football030-viewable-pct") // paper: 82.80
}

// BenchmarkFigure3FrequencyCap regenerates Figure 3: the per-user
// impression counts and median inter-arrival times across campaigns.
func BenchmarkFigure3FrequencyCap(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	var res audit.FrequencyResult
	for i := 0; i < b.N; i++ {
		res = s.auditor.Frequency()
	}
	b.ReportMetric(float64(res.UsersOver10), "users-over-10")   // paper: 1720
	b.ReportMetric(float64(res.UsersOver100), "users-over-100") // paper: 176
}

// BenchmarkTable4Fraud regenerates Table 4: the data-center traffic
// shares per campaign.
func BenchmarkTable4Fraud(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	var f010 audit.FraudResult
	for i := 0; i < b.N; i++ {
		for _, in := range s.inputs {
			res := s.auditor.Fraud(in.ID)
			if in.ID == "Football-010" {
				f010 = res
			}
		}
	}
	b.ReportMetric(100*f010.PctDataCenterImpressions(), "football010-dc-imps-pct") // paper: 8.6
	b.ReportMetric(100*f010.PctPublishersServingDC(), "football010-dc-pubs-pct")   // paper: 23.55
}

// BenchmarkFullAuditSerial measures the complete audit on one
// goroutine — the pre-parallelism baseline bench-compare pits the pool
// against.
func BenchmarkFullAuditSerial(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.auditor.FullAuditSerial(s.inputs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1, "workers")
}

// BenchmarkFullAuditParallel measures the fanned-out audit at
// GOMAXPROCS workers. On a multi-core machine this is where the
// speedup shows; on one core it documents the pool's overhead is
// negligible.
func BenchmarkFullAuditParallel(b *testing.B) {
	s := benchSetup(b)
	par := *s.auditor // don't leave Parallelism set on the shared auditor
	par.Parallelism = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := par.FullAudit(s.inputs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
}

// BenchmarkLiveReport measures the report the streaming engine serves
// at quiescence: the same folds over states it already holds — no
// fills — on the engine's default pool.
func BenchmarkLiveReport(b *testing.B) {
	s := benchSetup(b)
	eng, err := streamaudit.New(streamaudit.Config{
		Store: s.ws.Store,
		Meta:  audit.UniverseMetadata{Universe: s.ws.Publishers},
	})
	if err != nil {
		b.Fatal(err)
	}
	eng.Drain()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Report(s.inputs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
}

// BenchmarkLiveReportUnderIngest measures the live report a caller
// repeats while records arrive: per op, k more records of the dataset
// are inserted and applied outside the timer, then the engine reports.
// The engine starts on the first half of the records and has reported
// twice before the timer runs; when the second half runs out it starts
// over on a fresh store, outside the timer too. new_pairs_% is the
// share of the reports' (campaign, publisher) pairs that the ops'
// records added — what a report still looks up when its engine keeps
// the publishers it resolved before.
func BenchmarkLiveReportUnderIngest(b *testing.B) {
	s := benchSetup(b)
	var recs []store.Impression
	s.ws.Store.Visit(func(im *store.Impression) bool {
		recs = append(recs, *im)
		return true
	})
	// pairs[i] is the number of (campaign, publisher) pairs recs[:i]
	// show on.
	pairs := make([]int, len(recs)+1)
	seen := map[[2]string]bool{}
	for i, im := range recs {
		pairs[i+1] = pairs[i]
		if k := [2]string{im.CampaignID, im.Publisher}; !seen[k] {
			seen[k] = true
			pairs[i+1]++
		}
	}
	half := len(recs) / 2
	for _, k := range []int{160, 1600, 16000} {
		b.Run(fmt.Sprintf("records=%d", k), func(b *testing.B) {
			var eng *streamaudit.Engine
			var st *store.Store
			insert := func(from, to int) {
				for i := from; i < to; i++ {
					im := recs[i]
					im.ID = 0
					if _, err := st.Insert(im); err != nil {
						b.Fatal(err)
					}
					if i%512 == 0 { // stay inside the feed buffer
						eng.Drain()
					}
				}
				if _, resynced := eng.Drain(); resynced {
					b.Fatal("the engine resynced")
				}
			}
			report := func() {
				if _, err := eng.Report(s.inputs); err != nil {
					b.Fatal(err)
				}
			}
			next, added, total := len(recs), 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if next+k > len(recs) {
					st, next = store.New(), half
					var err error
					if eng, err = streamaudit.New(streamaudit.Config{
						Store: st,
						Meta:  audit.UniverseMetadata{Universe: s.ws.Publishers},
					}); err != nil {
						b.Fatal(err)
					}
					insert(0, half)
					report()
					report()
				}
				insert(next, next+k)
				added += pairs[next+k] - pairs[next]
				total += pairs[next+k]
				next += k
				b.StartTimer()
				report()
			}
			b.ReportMetric(100*float64(added)/float64(total), "new_pairs_%")
		})
	}
}

// BenchmarkFullAuditReport measures the complete audit plus rendering of
// every table and figure — the `auditctl -analysis all` hot path.
func BenchmarkFullAuditReport(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		full, err := s.auditor.FullAudit(s.inputs)
		if err != nil {
			b.Fatal(err)
		}
		if err := report.Full(io.Discard, s.run.Campaigns, full); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations -------------------------------------------------------

// BenchmarkAblationFrequencyCap10 reruns the heaviest campaign with the
// literature's cap of 10 and reports how many impressions the cap
// reassigns to fresh users — the waste AdWords' missing default buys.
func BenchmarkAblationFrequencyCap10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pol := adnet.DefaultPolicy()
		pol.FrequencyCap = 10
		ws, err := NewWorkspace(Options{Seed: 1, NumPublishers: 20000, Policy: &pol})
		if err != nil {
			b.Fatal(err)
		}
		run, err := ws.Run(adnet.PaperCampaigns()[2:3]) // Football-010
		if err != nil {
			b.Fatal(err)
		}
		auditor, err := ws.Auditor()
		if err != nil {
			b.Fatal(err)
		}
		_ = run
		res := auditor.Frequency()
		b.ReportMetric(float64(res.UsersOver10), "capped-users-over-10") // must be 0
		b.ReportMetric(float64(res.MaxImpressions()), "capped-max-per-user")
	}
}

// BenchmarkAblationVendorReportsAll flips the vendor to reporting ALL
// delivered impressions (not just viewable ones) and reports how much
// of Figure 1's publisher gap disappears — isolating viewable-only
// reporting as the cause.
func BenchmarkAblationVendorReportsAll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pol := adnet.DefaultPolicy()
		pol.VendorViewableGivenExposed = 1.0
		per := map[string]adnet.CampaignPolicy{}
		for id, p := range pol.PerCampaign {
			p.ViewProb = 1.0 // every impression "viewable": report covers all
			p.VendorViewableFactor = 1.0
			per[id] = p
		}
		pol.PerCampaign = per
		ws, err := NewWorkspace(Options{Seed: 1, NumPublishers: 20000, Policy: &pol})
		if err != nil {
			b.Fatal(err)
		}
		run, err := ws.Run(adnet.PaperCampaigns()[:2])
		if err != nil {
			b.Fatal(err)
		}
		auditor, err := ws.Auditor()
		if err != nil {
			b.Fatal(err)
		}
		res := auditor.BrandSafetyAggregate(run.Outcome.Reports())
		// The residual gap is only the audit's own loss side; the
		// unreported fraction collapses toward zero.
		b.ReportMetric(100*res.FractionUnreported(), "pct-unreported-all-reporting")
	}
}

// BenchmarkAblationMatcherThreshold compares the default tight
// similarity threshold with the widened macro-vertical one on the
// General-010 audit fraction — the sensitivity of Table 2 to the
// undisclosed cut-off.
func BenchmarkAblationMatcherThreshold(b *testing.B) {
	s := benchSetup(b)
	wide := *s.auditor
	m := *s.auditor.Matcher
	m.Threshold = m.Taxonomy.PathSimilarity(5.5)
	wide.Matcher = &m
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tight, err := s.auditor.Context("General-010", []string{"universities", "research", "telematics"}, nil)
		if err != nil {
			b.Fatal(err)
		}
		wider, err := wide.Context("General-010", []string{"universities", "research", "telematics"}, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*tight.AuditFraction(), "tight-threshold-pct")
		b.ReportMetric(100*wider.AuditFraction(), "wide-threshold-pct")
	}
}
