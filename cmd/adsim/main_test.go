package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"testing"

	"adaudit/internal/adnet"
	"adaudit/internal/store"
)

func TestRunWritesAllOutputs(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "imps.jsonl")
	csvPath := filepath.Join(dir, "imps.csv")
	reports := filepath.Join(dir, "reports.json")
	metrics := filepath.Join(dir, "metrics.json")

	// Small universe for test speed; -report=false to skip rendering.
	if err := run(7, 6000, snap, csvPath, reports, metrics, false, "", "", 0, "text", 0, testLogger()); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(snap)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.ReadSnapshot(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() == 0 {
		t.Fatal("snapshot empty")
	}
	if got := len(st.Campaigns()); got != 8 {
		t.Fatalf("campaigns in snapshot = %d", got)
	}
	if st.NumConversions() == 0 {
		t.Fatal("no conversions in snapshot")
	}

	rf, err := os.Open(reports)
	if err != nil {
		t.Fatal(err)
	}
	var vendorReports map[string]*adnet.VendorReport
	err = json.NewDecoder(rf).Decode(&vendorReports)
	rf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(vendorReports) != 8 {
		t.Fatalf("vendor reports = %d", len(vendorReports))
	}
	for id, rep := range vendorReports {
		if rep.TotalImpressionsCharged == 0 {
			t.Fatalf("report %s has no charges", id)
		}
	}

	if fi, err := os.Stat(csvPath); err != nil || fi.Size() == 0 {
		t.Fatalf("csv missing or empty: %v", err)
	}

	mf, err := os.Open(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var view map[string]json.RawMessage
	err = json.NewDecoder(mf).Decode(&view)
	mf.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"adaudit_collector_ingested_total",
		"adaudit_campaign_runs_total",
		"adaudit_store_inserts_total",
	} {
		if _, ok := view[name]; !ok {
			t.Fatalf("metrics view missing %s; have %d series", name, len(view))
		}
	}
}

// TestRunAdversarialScenario drives the CLI end to end with the
// combined fraud scenario and checks the written artifacts carry the
// attack: vendor reports with seller attributions the detectors flag,
// and ground-truth labels surfaced via the rows themselves.
func TestRunAdversarialScenario(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "imps.jsonl")
	reports := filepath.Join(dir, "reports.json")

	if err := run(7, 6000, snap, "", reports, "", false, "all", "", 0, "text", 0, testLogger()); err != nil {
		t.Fatal(err)
	}

	rf, err := os.Open(reports)
	if err != nil {
		t.Fatal(err)
	}
	var vendorReports map[string]*adnet.VendorReport
	err = json.NewDecoder(rf).Decode(&vendorReports)
	rf.Close()
	if err != nil {
		t.Fatal(err)
	}
	attributed := 0
	for _, rep := range vendorReports {
		for _, row := range rep.Rows {
			if row.SellerID != "" {
				attributed++
			}
		}
	}
	if attributed == 0 {
		t.Fatal("adversarial run wrote reports without seller attributions")
	}

	f, err := os.Open(snap)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.ReadSnapshot(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() == 0 {
		t.Fatal("snapshot empty")
	}
}

// TestReportMatchesCommittedSeed1 pins the rendered audit: `adsim
// -report` at its defaults (seed 1, 150,000 publishers) must print
// docs/paper_report_seed1.txt byte for byte. run prints to os.Stdout,
// so the test lends it a file for the call.
func TestReportMatchesCommittedSeed1(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "docs", "paper_report_seed1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.Create(filepath.Join(t.TempDir(), "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	err = run(1, 150000, "", "", "", "", true, "", "", 0, "text", 0, testLogger())
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("adsim -report no longer prints docs/paper_report_seed1.txt (%d bytes, want %d)", len(got), len(want))
	}
}

func TestRunRejectsBadPath(t *testing.T) {
	if err := run(1, 6000, "/nonexistent-dir/x.jsonl", "", "", "", false, "", "", 0, "text", 0, testLogger()); err == nil {
		t.Fatal("bad snapshot path accepted")
	}
}

func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}
