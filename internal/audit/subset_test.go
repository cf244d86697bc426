package audit_test

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"adaudit/internal/adnet"
	"adaudit/internal/audit"
	"adaudit/internal/store"
)

// countingMeta is a metadata source that counts its lookups per domain.
type countingMeta struct {
	known map[string]audit.PublisherMeta
	mu    sync.Mutex
	calls map[string]int
}

func (m *countingMeta) PublisherMeta(domain string) (audit.PublisherMeta, bool) {
	m.mu.Lock()
	m.calls[domain]++
	m.mu.Unlock()
	meta, ok := m.known[domain]
	return meta, ok
}

func (m *countingMeta) reset() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	calls := m.calls
	m.calls = map[string]int{}
	return calls
}

// subsetWorld is four campaigns whose publishers overlap: campaign k
// shows on p<2k>.es … p<2k+5>.es, every third publisher is brand-unsafe,
// p9.es and up have no metadata. holders maps each publisher to the
// campaigns showing on it. One input per campaign, every second
// publisher reported.
func subsetWorld(t *testing.T) (w goldenWorld, meta *countingMeta, holders map[string][]string) {
	t.Helper()
	t0 := time.Date(2016, 3, 29, 10, 0, 0, 0, time.UTC)
	meta = &countingMeta{known: map[string]audit.PublisherMeta{}, calls: map[string]int{}}
	w = goldenWorld{st: store.New(), meta: meta}
	holders = map[string][]string{}
	for k, id := range []string{"a", "b", "c", "d"} {
		rep := &adnet.VendorReport{CampaignID: id, TotalImpressionsCharged: 40, ContextualImpressions: 10}
		for i := 0; i < 36; i++ {
			p := k*2 + i%6
			pub := fmt.Sprintf("p%d.es", p)
			if p < 9 {
				meta.known[pub] = audit.PublisherMeta{
					Rank: 100 * (p + 1), Keywords: []string{"research"}, Topics: []string{"science"}, Unsafe: p%3 == 1,
				}
			}
			if i < 6 {
				holders[pub] = append(holders[pub], id)
				if p%2 == 0 {
					rep.Rows = append(rep.Rows, adnet.ReportRow{Publisher: pub, Impressions: 2})
				}
			}
			user := fmt.Sprintf("u%d", i%7)
			if _, err := w.st.Insert(store.Impression{
				CampaignID: id, CreativeID: "cr", Publisher: pub, PageURL: "http://" + pub + "/",
				UserAgent: "UA", IPPseudonym: "ip-" + user, UserKey: user,
				Timestamp: t0.Add(time.Duration(k*1000+i*37) * time.Second), Exposure: time.Duration(400+i*50) * time.Millisecond,
				DataCenter: "not-data-center",
			}); err != nil {
				t.Fatal(err)
			}
		}
		w.inputs = append(w.inputs, audit.CampaignInput{ID: id, Keywords: []string{"research"}, Report: rep})
	}
	return w, meta, holders
}

// The inputs may name fewer campaigns than the store holds, and ones it
// does not hold: per-campaign results follow the inputs, while the
// aggregate Venn and the frequency scatter still cover every campaign's
// state — those no input names have no resolved view — and the three
// report paths agree.
func TestReportInputsSubsetOfCampaigns(t *testing.T) {
	w, _, holders := subsetWorld(t)
	ghost := audit.CampaignInput{ID: "ghost", Keywords: []string{"research"}, Report: &adnet.VendorReport{
		CampaignID: "ghost", Rows: []adnet.ReportRow{{Publisher: "p0.es", Impressions: 1}, {Publisher: "nowhere.es", Impressions: 1}},
	}}
	w.inputs = []audit.CampaignInput{w.inputs[0], ghost, w.inputs[2]}

	batch := w.batch(t)
	if live := w.live(t); !reflect.DeepEqual(live, batch) {
		t.Errorf("live report diverges from batch\n got %+v\nwant %+v", live, batch)
	}
	if merged := w.merged(t); !reflect.DeepEqual(merged, batch) {
		t.Errorf("merged report diverges from batch\n got %+v\nwant %+v", merged, batch)
	}

	if len(batch.PerCampaign) != 3 {
		t.Fatalf("%d per-campaign results for 3 inputs", len(batch.PerCampaign))
	}
	for i, in := range w.inputs {
		if ca := batch.PerCampaign[i]; ca.ID != in.ID || ca.Context.CampaignID != in.ID {
			t.Errorf("PerCampaign[%d] is %q/%q, want %q", i, ca.ID, ca.Context.CampaignID, in.ID)
		}
	}
	if g := batch.PerCampaign[1]; g.Context.AuditImpressions != 0 || g.Popularity.UnknownMeta != 0 ||
		g.BrandSafety.Venn.SizeA() != 0 || !reflect.DeepEqual(g.BrandSafety.VendorOnly, []string{"nowhere.es", "p0.es"}) {
		t.Errorf("the campaign without a state audits as %+v", g)
	}
	if a := batch.PerCampaign[0]; a.Context.AuditImpressions != 36 || a.Context.MeaningfulImpressions != 36 || a.BrandSafety.Venn.SizeA() != 6 {
		t.Errorf("campaign a audits as %+v", a)
	}

	// p0, p2, p4 (a), p4, p6, p8 (c) and p0 (ghost) are reported; every
	// other publisher of any campaign is audit-only. Of the unsafe ones
	// p1.es is a's, p7.es only b's and d's, which no input names; p10.es
	// has no metadata.
	var auditOnly, unsafe []string
	for pub := range holders {
		var p int
		fmt.Sscanf(pub, "p%d.es", &p)
		if p%2 == 1 || p > 8 {
			auditOnly = append(auditOnly, pub)
			if p%3 == 1 && p < 9 {
				unsafe = append(unsafe, pub)
			}
		}
	}
	slices.Sort(auditOnly)
	slices.Sort(unsafe)
	agg := batch.Aggregate
	if agg.Venn.SizeA() != len(holders) || !reflect.DeepEqual(agg.AuditOnly, auditOnly) || !reflect.DeepEqual(agg.UnsafeUnreported, unsafe) {
		t.Errorf("aggregate = %+v, want %d audited, audit-only %v, unsafe %v", agg, len(holders), auditOnly, unsafe)
	}
	if !reflect.DeepEqual(agg.VendorOnly, []string{"nowhere.es"}) {
		t.Errorf("aggregate VendorOnly = %v", agg.VendorOnly)
	}

	points := map[string]int{}
	for _, p := range batch.Frequency.Points {
		points[p.CampaignID]++
	}
	if want := map[string]int{"a": 7, "b": 7, "c": 7, "d": 7}; !reflect.DeepEqual(points, want) {
		t.Errorf("frequency points per campaign = %v, want %v", points, want)
	}
}

// A report resolves each (campaign, publisher) pair with one metadata
// lookup, whichever path produces it: the folds read the resolved view.
func TestReportLooksEachPublisherUpOnce(t *testing.T) {
	w, meta, holders := subsetWorld(t)
	// With every campaign an input, each pair is resolved into a view:
	// exactly one lookup per pair, and none of any other domain.
	for _, path := range []struct {
		name   string
		report func(*testing.T) *audit.FullReport
	}{{"batch", w.batch}, {"live", w.live}, {"merged", w.merged}} {
		meta.reset()
		path.report(t)
		calls := meta.reset()
		for pub, ids := range holders {
			if calls[pub] != len(ids) {
				t.Errorf("%s: %d lookups of %s, held by campaigns %v", path.name, calls[pub], pub, ids)
			}
		}
		if len(calls) != len(holders) {
			t.Errorf("%s: looked up %d domains, the campaigns hold %d", path.name, len(calls), len(holders))
		}
	}
	// With two, the aggregate looks up those publishers of the other
	// campaigns that no view holds: still at most once per pair.
	w.inputs = w.inputs[1:3]
	w.batch(t)
	calls := meta.reset()
	for pub, ids := range holders {
		if calls[pub] > len(ids) || calls[pub] == 0 {
			t.Errorf("batch, 2 inputs: %d lookups of %s, held by campaigns %v", calls[pub], pub, ids)
		}
	}
}
