package audit_test

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"adaudit"
	"adaudit/internal/adnet"
	"adaudit/internal/audit"
	"adaudit/internal/shardmerge"
	"adaudit/internal/store"
	"adaudit/internal/streamaudit"
)

// The goldens under testdata/ anchor "the report is what it was" outside
// the code that computes it: a canonical dump of the whole FullReport of
// the seeded paper workload and of each adversary scenario, committed
// from the tree as it stood before batch, streaming and shard merge were
// moved onto one state. Batch, live and 2-shard-merged reports must each
// reproduce the dump byte for byte. Regenerate (only for a deliberate
// change of a result) with: go test ./internal/audit -run TestGoldenReports -update
var updateGoldens = flag.Bool("update", false, "rewrite the golden report dumps under testdata/")

var goldenWorkloads = []struct {
	name, scenario string
	publishers     int
}{
	{"paper_seed1", "", 0},
	{"adversary_spoof", "spoof", 20000},
	{"adversary_pool", "pool", 20000},
	{"adversary_bots", "bots", 20000},
	{"adversary_inflate", "inflate", 20000},
}

// dumpReport renders every exported field of the report as indented
// JSON (map keys sorted, floats in their shortest exact form), the
// Top-50K fractions the unexported rank lists back, and one line per
// Figure 3 point.
func dumpReport(rep *audit.FullReport) []byte {
	type topK struct {
		CampaignID                            string
		PublisherFraction, ImpressionFraction float64
	}
	doc := struct {
		PerCampaign []audit.CampaignAudit
		Top50K      []topK
		Aggregate   audit.BrandSafetyResult
		Frequency   struct{ Points, UsersOver10, UsersOver100, MaxImpressions int }
	}{PerCampaign: rep.PerCampaign, Aggregate: rep.Aggregate}
	for _, ca := range rep.PerCampaign {
		doc.Top50K = append(doc.Top50K, topK{ca.ID,
			ca.Popularity.TopKPublisherFraction(50000), ca.Popularity.TopKImpressionFraction(50000)})
	}
	f := rep.Frequency
	doc.Frequency.Points, doc.Frequency.UsersOver10 = len(f.Points), f.UsersOver10
	doc.Frequency.UsersOver100, doc.Frequency.MaxImpressions = f.UsersOver100, f.MaxImpressions()

	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetIndent("", " ")
	if err := enc.Encode(doc); err != nil {
		panic(err) // no NaN/Inf reaches a report
	}
	for _, p := range f.Points {
		fmt.Fprintf(&out, "%s %s %d %d\n", p.CampaignID, p.UserKey, p.Impressions, int64(p.MedianInterArrival))
	}
	return out.Bytes()
}

// goldenWorld is one simulated workload: its store, metadata and inputs.
type goldenWorld struct {
	st     *store.Store
	meta   audit.MetadataSource
	inputs []audit.CampaignInput
}

func simulateGolden(t *testing.T, publishers int, scenario string) goldenWorld {
	t.Helper()
	opts := adaudit.Options{Seed: 1, NumPublishers: publishers}
	if scenario != "" {
		adv, err := adnet.AdversaryScenario(scenario)
		if err != nil {
			t.Fatal(err)
		}
		pol := adnet.DefaultPolicy()
		pol.Adversary = adv
		opts.Policy = &pol
	}
	ws, err := adaudit.NewWorkspace(opts)
	if err != nil {
		t.Fatal(err)
	}
	campaigns := adnet.PaperCampaigns()
	run, err := ws.Run(campaigns)
	if err != nil {
		t.Fatal(err)
	}
	w := goldenWorld{st: ws.Store, meta: audit.UniverseMetadata{Universe: ws.Publishers}}
	reports := run.Outcome.Reports()
	for _, c := range campaigns {
		w.inputs = append(w.inputs, audit.CampaignInput{ID: c.ID, Keywords: c.Keywords, Report: reports[c.ID]})
	}
	return w
}

func (w goldenWorld) batch(t *testing.T) *audit.FullReport {
	t.Helper()
	a, err := audit.New(w.st, w.meta)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.FullAudit(w.inputs)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// live replays the dataset into an empty store an engine is already
// attached to, so every record reaches the engine as a feed delta.
func (w goldenWorld) live(t *testing.T) *audit.FullReport {
	t.Helper()
	fed := store.New()
	eng, err := streamaudit.New(streamaudit.Config{Store: fed, Meta: w.meta})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	w.st.Visit(func(im *store.Impression) bool {
		if _, err = fed.Insert(*im); err != nil {
			return false
		}
		if n++; n%500 == 0 {
			eng.Drain()
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range w.st.Conversions("") {
		if _, err := fed.InsertConversion(c); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	if eng.Resyncs() != 0 {
		t.Fatalf("engine resynced %d times; the replay was meant to arrive as deltas", eng.Resyncs())
	}
	rep, err := eng.Report(w.inputs)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// merged splits the dataset over two shards — the first half of the
// records in insertion order, then the rest, so the shard-order union is
// the original order; conversions alternate — exports each shard's
// primed engine through JSON, merges and reports.
func (w goldenWorld) merged(t *testing.T) *audit.FullReport {
	t.Helper()
	shards := []*store.Store{store.New(), store.New()}
	half, n := w.st.Len()/2, 0
	var err error
	w.st.Visit(func(im *store.Impression) bool {
		sh := shards[0]
		if n >= half {
			sh = shards[1]
		}
		n++
		_, err = sh.Insert(*im)
		return err == nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range w.st.Conversions("") {
		if _, err := shards[i%2].InsertConversion(c); err != nil {
			t.Fatal(err)
		}
	}
	exports := make([]*streamaudit.Export, len(shards))
	for i, sh := range shards {
		eng, err := streamaudit.New(streamaudit.Config{Store: sh, Meta: w.meta})
		if err != nil {
			t.Fatal(err)
		}
		eng.Drain()
		b, err := json.Marshal(eng.Export())
		if err != nil {
			t.Fatal(err)
		}
		exports[i] = &streamaudit.Export{}
		if err := json.Unmarshal(b, exports[i]); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := streamaudit.NewStatic(streamaudit.StaticConfig{Meta: w.meta}, shardmerge.Merge(exports))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Report(w.inputs)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestGoldenReports(t *testing.T) {
	for _, wl := range goldenWorkloads {
		t.Run(wl.name, func(t *testing.T) {
			t.Parallel()
			w := simulateGolden(t, wl.publishers, wl.scenario)
			path := filepath.Join("testdata", wl.name+".report.gz")
			if *updateGoldens {
				writeGolden(t, path, dumpReport(w.batch(t)))
			}
			want := readGolden(t, path)
			for _, p := range []struct {
				name   string
				report func(*testing.T) *audit.FullReport
			}{{"batch", w.batch}, {"live", w.live}, {"merged", w.merged}} {
				if got := dumpReport(p.report(t)); !bytes.Equal(got, want) {
					t.Errorf("%s report differs from %s at %s", p.name, path, firstDifference(got, want))
				}
			}
		})
	}
}

// writeGolden stores the dump gzip-compressed (no name, no mtime, so
// the same dump is the same file).
func writeGolden(t *testing.T, path string, dump []byte) {
	t.Helper()
	var buf bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&buf, gzip.BestCompression)
	zw.Write(dump)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readGolden(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	dump, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return dump
}

// firstDifference names the first line two dumps disagree on.
func firstDifference(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("line %d: one dump ends (got %d lines, want %d)", min(len(g), len(w))+1, len(g), len(w))
}
