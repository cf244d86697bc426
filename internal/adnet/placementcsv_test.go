package adnet

import (
	"strings"
	"testing"
)

const sampleCSV = `Placement,Impressions,Clicks,Cost
www.futbolhoy.es,"12,345",23,1.23
http://ciencia.es/articulo?id=7,456,1,0.05
anonymous.google,425,0,0.04
--,10,0,0.00
Total: all placements,"13,236",24,1.32
`

func TestParsePlacementCSV(t *testing.T) {
	rep, err := ParsePlacementCSV(strings.NewReader(sampleCSV), "General-005")
	if err != nil {
		t.Fatal(err)
	}
	if rep.CampaignID != "General-005" {
		t.Fatalf("campaign = %q", rep.CampaignID)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d: %+v", len(rep.Rows), rep.Rows)
	}
	byPub := map[string]ReportRow{}
	for _, row := range rep.Rows {
		byPub[row.Publisher] = row
	}
	if row := byPub["futbolhoy.es"]; row.Impressions != 12345 || row.Clicks != 23 {
		t.Fatalf("futbolhoy row = %+v", row)
	}
	// URL placements reduce to the registrable domain.
	if row := byPub["ciencia.es"]; row.Impressions != 456 {
		t.Fatalf("ciencia row = %+v", row)
	}
	// The anonymous aggregate is preserved as-is.
	if rep.AnonymousImpressions() != 425 {
		t.Fatalf("anonymous = %d", rep.AnonymousImpressions())
	}
	// Charged total excludes the skipped placeholder and summary rows.
	if rep.TotalImpressionsCharged != 12345+456+425 {
		t.Fatalf("charged = %d", rep.TotalImpressionsCharged)
	}
}

func TestParsePlacementCSVColumnVariants(t *testing.T) {
	// A differently-labelled export (DSP style).
	csvData := "Site URL;Impr.;Clicks\n" // header only to prove detection fails on ;
	if _, err := ParsePlacementCSV(strings.NewReader(csvData), "c"); err == nil {
		t.Fatal("semicolon-separated header accepted as placement csv")
	}
	csvData = "Site Domain,Impr.,Click-throughs\nexample.es,100,2\n"
	rep, err := ParsePlacementCSV(strings.NewReader(csvData), "c")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 1 || rep.Rows[0].Publisher != "example.es" || rep.Rows[0].Impressions != 100 || rep.Rows[0].Clicks != 2 {
		t.Fatalf("rows = %+v", rep.Rows)
	}
}

func TestParsePlacementCSVErrors(t *testing.T) {
	if _, err := ParsePlacementCSV(strings.NewReader(""), "c"); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := ParsePlacementCSV(strings.NewReader("A,B\n1,2\n"), "c"); err == nil {
		t.Fatal("header without placement/impressions accepted")
	}
	if _, err := ParsePlacementCSV(strings.NewReader("Placement,Impressions\nx.es,notanumber\n"), "c"); err == nil {
		t.Fatal("bad impressions accepted")
	}
}

func TestParsedReportFeedsAudit(t *testing.T) {
	// The parsed report works with the audit package's brand-safety
	// comparison: its publishers exclude the anonymous label.
	rep, err := ParsePlacementCSV(strings.NewReader(sampleCSV), "c")
	if err != nil {
		t.Fatal(err)
	}
	pubs := reportedPublishers(rep)
	for _, p := range pubs {
		if p == AnonymousPublisher {
			t.Fatal("anonymous label leaked into publishers")
		}
	}
	if len(pubs) != 2 {
		t.Fatalf("publishers = %v", pubs)
	}
}

func TestNormalizePlacement(t *testing.T) {
	cases := map[string]string{
		"www.X.es":                 "x.es",
		"https://a.b.c/path?q=1":   "a.b.c",
		"  site.com  ":             "site.com",
		"--":                       "",
		"":                         "",
		"http://www.deep.sub.es/#": "deep.sub.es",
	}
	for in, want := range cases {
		if got := normalizePlacement(in); got != want {
			t.Errorf("normalizePlacement(%q) = %q, want %q", in, got, want)
		}
	}
}
