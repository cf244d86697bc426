package audit_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"adaudit/internal/audit"
	"adaudit/internal/store"
	"adaudit/internal/streamaudit"
)

// A live engine keeps each campaign's resolved view from its second
// report on: the first report looks each (campaign, publisher) pair up
// once and keeps nothing, so the second looks each up once again and
// keeps them, the third looks up none, and after records on k new pairs
// are applied the one after looks up exactly those k — each report
// still equal to the batch audit. Audit and LiveSummary read the same
// views.
func TestLiveReportLooksUpOnlyNewPublishers(t *testing.T) {
	w, meta, holders := subsetWorld(t)
	keywords := map[string][]string{}
	for _, in := range w.inputs {
		keywords[in.ID] = in.Keywords
	}
	eng, err := streamaudit.New(streamaudit.Config{Store: w.st, Meta: meta, Keywords: keywords})
	if err != nil {
		t.Fatal(err)
	}
	report := func(step string) map[string]int {
		t.Helper()
		meta.reset()
		live, err := eng.Report(w.inputs)
		if err != nil {
			t.Fatal(err)
		}
		calls := meta.reset()
		if batch := w.batch(t); !reflect.DeepEqual(live, batch) {
			t.Fatalf("%s: live report diverges from batch\n got %+v\nwant %+v", step, live, batch)
		}
		meta.reset()
		return calls
	}

	for _, step := range []string{"first report", "second report"} {
		calls := report(step)
		for pub, ids := range holders {
			if calls[pub] != len(ids) {
				t.Errorf("%s: %d lookups of %s, held by campaigns %v", step, calls[pub], pub, ids)
			}
		}
	}
	if calls := report("third report"); len(calls) != 0 {
		t.Errorf("third report looked up %v, want nothing", calls)
	}

	// Campaign a shows on two new publishers (one known, one not), and b
	// on one of them: three new pairs. Records on publishers a already
	// shows on add none.
	t0 := time.Date(2016, 3, 30, 10, 0, 0, 0, time.UTC)
	for i, rec := range []struct{ campaign, pub string }{
		{"a", "new1.es"}, {"a", "new2.es"}, {"b", "new1.es"}, {"a", "p0.es"}, {"a", "new1.es"},
	} {
		if _, err := w.st.Insert(store.Impression{
			CampaignID: rec.campaign, CreativeID: "cr", Publisher: rec.pub, PageURL: "http://" + rec.pub + "/",
			UserAgent: "UA", IPPseudonym: "ip-u1", UserKey: fmt.Sprintf("u%d", i),
			Timestamp: t0.Add(time.Duration(i) * time.Minute), Exposure: time.Second, DataCenter: "not-data-center",
		}); err != nil {
			t.Fatal(err)
		}
	}
	meta.known["new1.es"] = audit.PublisherMeta{Rank: 50, Keywords: []string{"research"}, Topics: []string{"science"}}
	eng.Drain()
	if calls, want := report("after new publishers"), map[string]int{"new1.es": 2, "new2.es": 1}; !reflect.DeepEqual(calls, want) {
		t.Errorf("after new publishers: looked up %v, want %v", calls, want)
	}
	if _, ok, err := eng.Audit("a"); !ok || err != nil {
		t.Fatalf("Audit(a): ok=%v err=%v", ok, err)
	}
	if _, ok := eng.LiveSummary("b"); !ok {
		t.Fatal("LiveSummary(b): not found")
	}
	if calls := meta.reset(); len(calls) != 0 {
		t.Errorf("Audit and LiveSummary looked up %v, want nothing", calls)
	}
}
