package main

import (
	"encoding/json"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"testing"
	"time"

	"adaudit/internal/adnet"
	"adaudit/internal/store"
)

// writeFixture builds a small dataset + reports on disk for the CLI.
func writeFixture(t *testing.T) (snap, reports string) {
	t.Helper()
	dir := t.TempDir()
	st := store.New()
	base := time.Date(2016, 3, 29, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 40; i++ {
		if _, err := st.Insert(store.Impression{
			CampaignID: "Research-010", CreativeID: "cr",
			Publisher: "ciencia123.es", PageURL: "http://ciencia123.es/",
			UserAgent: "UA", IPPseudonym: "p", UserKey: "u",
			Timestamp: base.Add(time.Duration(i) * time.Minute),
			Exposure:  2 * time.Second, DataCenter: "not-data-center",
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.InsertConversion(store.Conversion{
		CampaignID: "Research-010", UserKey: "u", Action: "purchase",
		ValueCents: 500, Timestamp: base.Add(time.Hour),
	}); err != nil {
		t.Fatal(err)
	}

	snap = filepath.Join(dir, "imps.jsonl")
	f, err := os.Create(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reports = filepath.Join(dir, "reports.json")
	f, err = os.Create(reports)
	if err != nil {
		t.Fatal(err)
	}
	reps := map[string]*adnet.VendorReport{
		"Research-010": {
			CampaignID:              "Research-010",
			Rows:                    []adnet.ReportRow{{Publisher: "ciencia123.es", Impressions: 20}},
			TotalImpressionsCharged: 40,
			ContextualImpressions:   2,
		},
	}
	if err := json.NewEncoder(f).Encode(reps); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return snap, reports
}

func TestRunIndividualAnalyses(t *testing.T) {
	snap, reports := writeFixture(t)
	for _, analysis := range []string{
		"viewability", "frequency", "fraud", "conversions", "popularity",
		"brandsafety", "context", "adversarial", "sellers", "pooling", "behavior",
	} {
		if err := run(snap, reports, "", analysis, "", 1, 6000, 0, testLogger()); err != nil {
			t.Errorf("analysis %s: %v", analysis, err)
		}
	}
}

func TestRunAllAnalyses(t *testing.T) {
	snap, reports := writeFixture(t)
	if err := run(snap, reports, "", "all", "", 1, 6000, 0, testLogger()); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	snap, _ := writeFixture(t)
	if err := run("", "", "", "all", "", 1, 6000, 0, testLogger()); err == nil {
		t.Fatal("missing snapshot accepted")
	}
	if err := run(snap, "", "", "all", "", 1, 6000, 0, testLogger()); err == nil {
		t.Fatal("-analysis all without reports accepted")
	}
	if err := run(snap, "", "", "nonsense", "", 1, 6000, 0, testLogger()); err == nil {
		t.Fatal("unknown analysis accepted")
	}
	if err := run(snap, "", "", "brandsafety", "", 1, 6000, 0, testLogger()); err == nil {
		t.Fatal("brandsafety without reports accepted")
	}
	if err := run("/nonexistent/x.jsonl", "", "", "fraud", "", 1, 6000, 0, testLogger()); err == nil {
		t.Fatal("bad snapshot path accepted")
	}
}

func TestSplitCSV(t *testing.T) {
	got := splitCSV(" a, b ,,c ")
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("splitCSV = %v", got)
	}
	if splitCSV("") != nil {
		t.Fatal("empty input should yield nil")
	}
}

func TestRunWithPlacementCSV(t *testing.T) {
	snap, _ := writeFixture(t)
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "placements.csv")
	csvData := "Placement,Impressions,Clicks\nciencia123.es,20,1\notro.es,5,0\n"
	if err := os.WriteFile(csvPath, []byte(csvData), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(snap, "", "Research-010="+csvPath, "brandsafety", "", 1, 6000, 0, testLogger()); err != nil {
		t.Fatal(err)
	}
	if err := run(snap, "", "malformed-spec", "brandsafety", "", 1, 6000, 0, testLogger()); err == nil {
		t.Fatal("malformed placement spec accepted")
	}
}

func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}
