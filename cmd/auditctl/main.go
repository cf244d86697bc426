// Command auditctl analyses a collected impression dataset: it loads a
// snapshot (written by auditd or adsim: the impressions and the
// conversions), optionally joins the vendor reports, and prints the
// paper's audit analyses.
//
// Usage:
//
//	auditctl -snapshot imps.snap [-reports reports.json] [-analysis all]
//	         [-log-level info|debug|warn|error] [-log-format text|json]
//
// Analyses: all, brandsafety, context, popularity, viewability,
// frequency, fraud, adversarial (or its parts: sellers, pooling,
// behavior). Context needs -reports (for keywords it uses the
// campaign IDs' keyword conventions) or -keywords. stream-verify
// replays the dataset through the incremental streaming-audit engine
// and verifies its report is deep-equal to the batch FullAudit — the
// offline form of the live engine's headline correctness guarantee.
//
// Without vendor reports, auditctl runs the vendor-independent analyses
// (popularity, viewability, frequency, fraud) — exactly what an
// advertiser can compute from the beacon dataset alone.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"reflect"
	"strings"

	"adaudit/internal/adnet"
	"adaudit/internal/audit"
	"adaudit/internal/logutil"
	"adaudit/internal/publisher"
	"adaudit/internal/report"
	"adaudit/internal/store"
	"adaudit/internal/streamaudit"
)

func main() {
	var (
		snapshot    = flag.String("snapshot", "", "dataset snapshot: impressions and conversions, binary; required")
		reports     = flag.String("reports", "", "vendor reports JSON (map of campaign id to report)")
		placements  = flag.String("placement-csv", "", "real vendor placement exports: CAMPAIGN=path.csv[,CAMPAIGN=path.csv...]")
		analysis    = flag.String("analysis", "all", "all|brandsafety|context|popularity|viewability|frequency|fraud|adversarial|sellers|pooling|behavior|conversions|interactions|stream-verify")
		keywords    = flag.String("keywords", "", "comma-separated campaign keywords for the context analysis (fallback when no reports metadata)")
		seed        = flag.Int64("seed", 1, "seed of the synthetic metadata universe (must match the dataset's)")
		pubs        = flag.Int("publishers", 150000, "size of the synthetic metadata universe")
		parallelism = flag.Int("parallelism", 0, "audit worker-pool size: 0 = one worker per CPU, 1 = serial (output is identical at every setting)")
		logFlags    = logutil.Register(flag.CommandLine)
	)
	flag.Parse()
	logger, err := logFlags.Logger(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "auditctl:", err)
		os.Exit(2)
	}
	if err := run(*snapshot, *reports, *placements, *analysis, *keywords, *seed, *pubs, *parallelism, logger); err != nil {
		logger.Error("analysis failed", "err", err)
		os.Exit(1)
	}
}

func run(snapshotPath, reportsPath, placementsSpec, analysis, keywordsCSV string, seed int64, numPubs, parallelism int, logger *slog.Logger) error {
	if snapshotPath == "" {
		return fmt.Errorf("-snapshot is required")
	}
	f, err := os.Open(snapshotPath)
	if err != nil {
		return err
	}
	st, err := store.ReadSnapshot(f)
	f.Close()
	if err != nil {
		return err
	}
	logger.Info("dataset loaded",
		"impressions", st.Len(),
		"conversions", st.NumConversions(),
		"campaigns", len(st.Campaigns()),
		"publishers", len(st.Publishers("")))

	// Metadata: the synthetic universe regenerated from the same seed —
	// the equivalent of re-querying the placement tool + Alexa.
	uni, err := publisher.NewUniverse(publisher.Config{Seed: seed, NumPublishers: numPubs})
	if err != nil {
		return err
	}
	auditor, err := audit.New(st, audit.UniverseMetadata{Universe: uni})
	if err != nil {
		return err
	}
	auditor.Parallelism = parallelism

	var vendorReports map[string]*adnet.VendorReport
	if reportsPath != "" {
		rf, err := os.Open(reportsPath)
		if err != nil {
			return err
		}
		defer rf.Close()
		if err := json.NewDecoder(rf).Decode(&vendorReports); err != nil {
			return fmt.Errorf("decoding vendor reports: %w", err)
		}
	}
	// Real platform exports (AdWords-style placement CSVs) merge in on
	// top of (or instead of) the JSON reports.
	if placementsSpec != "" {
		if vendorReports == nil {
			vendorReports = map[string]*adnet.VendorReport{}
		}
		for _, pair := range splitCSV(placementsSpec) {
			campaignID, path, ok := strings.Cut(pair, "=")
			if !ok {
				return fmt.Errorf("-placement-csv wants CAMPAIGN=path, got %q", pair)
			}
			pf, err := os.Open(path)
			if err != nil {
				return err
			}
			rep, err := adnet.ParsePlacementCSV(pf, campaignID)
			pf.Close()
			if err != nil {
				return err
			}
			vendorReports[campaignID] = rep
		}
	}

	keywords := splitCSV(keywordsCSV)
	paperKeywords := map[string][]string{}
	for _, c := range adnet.PaperCampaigns() {
		paperKeywords[c.ID] = c.Keywords
	}
	keywordsFor := func(campaignID string) []string {
		if kws, ok := paperKeywords[campaignID]; ok {
			return kws
		}
		return keywords
	}

	out := os.Stdout
	for _, a := range splitCSV(analysis) {
		switch a {
		case "all":
			return runAll(out, st, auditor, vendorReports, keywordsFor)
		case "brandsafety":
			if vendorReports == nil {
				return fmt.Errorf("brandsafety needs -reports")
			}
			agg := auditor.BrandSafetyAggregate(vendorReports)
			var per []audit.CampaignAudit
			for _, id := range st.Campaigns() {
				if rep := vendorReports[id]; rep != nil {
					per = append(per, audit.CampaignAudit{ID: id, BrandSafety: auditor.BrandSafety(id, rep)})
				}
			}
			if err := report.Figure1(out, agg, per); err != nil {
				return err
			}
		case "context":
			var per []audit.CampaignAudit
			for _, id := range st.Campaigns() {
				var rep *adnet.VendorReport
				if vendorReports != nil {
					rep = vendorReports[id]
				}
				res, err := auditor.Context(id, keywordsFor(id), rep)
				if err != nil {
					return err
				}
				per = append(per, audit.CampaignAudit{ID: id, Context: res})
			}
			if err := report.Table2(out, per); err != nil {
				return err
			}
		case "popularity":
			var per []audit.CampaignAudit
			for _, id := range st.Campaigns() {
				res, err := auditor.Popularity(id, 10, 10_000_000)
				if err != nil {
					return err
				}
				per = append(per, audit.CampaignAudit{ID: id, Popularity: res})
			}
			if err := report.Figure2(out, per); err != nil {
				return err
			}
		case "viewability":
			var per []audit.CampaignAudit
			for _, id := range st.Campaigns() {
				per = append(per, audit.CampaignAudit{ID: id, Viewability: auditor.Viewability(id)})
			}
			if err := report.Table3(out, per); err != nil {
				return err
			}
		case "frequency":
			if err := report.Figure3(out, auditor.Frequency()); err != nil {
				return err
			}
		case "conversions":
			var results []audit.ConversionResult
			for _, id := range st.Campaigns() {
				results = append(results, auditor.Conversions(id))
			}
			if err := report.TableConversions(out, results); err != nil {
				return err
			}
		case "interactions":
			var results []audit.InteractionResult
			for _, id := range st.Campaigns() {
				results = append(results, auditor.Interactions(id))
			}
			if err := report.TableInteractions(out, results); err != nil {
				return err
			}
		case "stream-verify":
			if vendorReports == nil {
				return fmt.Errorf("stream-verify needs -reports")
			}
			if err := streamVerify(out, st, auditor, uni, vendorReports, keywordsFor); err != nil {
				return err
			}
		case "fraud":
			var per []audit.CampaignAudit
			for _, id := range st.Campaigns() {
				per = append(per, audit.CampaignAudit{ID: id, Fraud: auditor.Fraud(id)})
			}
			if err := report.Table4(out, per); err != nil {
				return err
			}
		case "adversarial", "sellers", "pooling", "behavior":
			// Behavior is vendor-independent; the supply-chain checks need
			// the vendor report's seller attributions to cross-check.
			if a != "behavior" && vendorReports == nil {
				return fmt.Errorf("%s needs -reports (seller attributions to cross-check)", a)
			}
			var per []audit.CampaignAudit
			for _, id := range st.Campaigns() {
				ca := audit.CampaignAudit{ID: id}
				rep := vendorReports[id]
				if a == "adversarial" || a == "sellers" {
					ca.Sellers = auditor.SellerAudit(id, rep)
				}
				if a == "adversarial" || a == "pooling" {
					ca.Pooling = auditor.Pooling(id, rep)
				}
				if a == "adversarial" || a == "behavior" {
					ca.Behavior = auditor.Behavior(id)
				}
				per = append(per, ca)
			}
			if err := report.Table5(out, per); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown analysis %q", a)
		}
		fmt.Fprintln(out)
	}
	return nil
}

func runAll(out *os.File, st *store.Store, auditor *audit.Auditor,
	vendorReports map[string]*adnet.VendorReport, keywordsFor func(string) []string) error {

	if vendorReports == nil {
		return fmt.Errorf("-analysis all needs -reports (use individual analyses otherwise)")
	}
	var inputs []audit.CampaignInput
	for _, id := range st.Campaigns() {
		rep := vendorReports[id]
		if rep == nil {
			return fmt.Errorf("no vendor report for campaign %s", id)
		}
		inputs = append(inputs, audit.CampaignInput{ID: id, Keywords: keywordsFor(id), Report: rep})
	}
	full, err := auditor.FullAudit(inputs)
	if err != nil {
		return err
	}
	if err := report.Figure1(out, full.Aggregate, full.PerCampaign); err != nil {
		return err
	}
	fmt.Fprintln(out)
	if err := report.Table2(out, full.PerCampaign); err != nil {
		return err
	}
	fmt.Fprintln(out)
	if err := report.Figure2(out, full.PerCampaign); err != nil {
		return err
	}
	fmt.Fprintln(out)
	if err := report.Table3(out, full.PerCampaign); err != nil {
		return err
	}
	fmt.Fprintln(out)
	if err := report.Figure3(out, full.Frequency); err != nil {
		return err
	}
	fmt.Fprintln(out)
	if err := report.Table4(out, full.PerCampaign); err != nil {
		return err
	}
	fmt.Fprintln(out)
	return report.Table5(out, full.PerCampaign)
}

// streamVerify proves the streaming engine's headline guarantee on
// this dataset: an engine primed from the loaded store must produce a
// report deep-equal to the batch FullAudit over the same inputs.
func streamVerify(out *os.File, st *store.Store, auditor *audit.Auditor, uni *publisher.Universe,
	vendorReports map[string]*adnet.VendorReport, keywordsFor func(string) []string) error {

	var inputs []audit.CampaignInput
	for _, id := range st.Campaigns() {
		rep := vendorReports[id]
		if rep == nil {
			return fmt.Errorf("no vendor report for campaign %s", id)
		}
		inputs = append(inputs, audit.CampaignInput{ID: id, Keywords: keywordsFor(id), Report: rep})
	}
	eng, err := streamaudit.New(streamaudit.Config{Store: st, Meta: audit.UniverseMetadata{Universe: uni}})
	if err != nil {
		return err
	}
	incremental, err := eng.Report(inputs)
	if err != nil {
		return err
	}
	batch, err := auditor.FullAudit(inputs)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(incremental, batch) {
		return fmt.Errorf("stream-verify: incremental report diverges from batch audit")
	}
	fmt.Fprintf(out, "stream-verify: incremental report matches batch audit (%d campaigns, %d impressions)\n",
		len(inputs), st.Len())
	return nil
}

func splitCSV(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
