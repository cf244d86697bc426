package streamaudit

import (
	"math/rand"
	"reflect"
	"testing"

	"adaudit/internal/adnet"
	"adaudit/internal/audit"
)

// newKeptWorld is a world of n records whose campaigns show on fewer
// publishers than the universe holds, so later records add publishers,
// and a live engine that has reported on it twice: every campaign has a
// kept view (the first report keeps none).
func newKeptWorld(t *testing.T, seed int64, n int, cfg Config) (*testWorld, *rand.Rand, *Engine) {
	t.Helper()
	w := newTestWorld(t, seed)
	rng := rand.New(rand.NewSource(seed))
	w.populate(t, rng, n)
	w.buildInputs(rng)
	cfg.Store, cfg.Meta = w.st, w.meta
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	e.aud.Parallelism = 4 // resolve tasks side by side on a one-CPU machine too
	requireReportsEqual(t, w, e)
	requireReportsEqual(t, w, e)
	return w, rng, e
}

// publishersOf counts the distinct publishers of each test campaign.
func publishersOf(w *testWorld) map[string]int {
	n := map[string]int{}
	for _, c := range testCampaigns {
		n[c] = len(w.st.Publishers(c))
	}
	return n
}

// TestKeptViewReportsMatchFullAudit: a live engine's reports resolve
// through the views it keeps between them, and each still deep-equals
// the batch audit over the same store — after its campaigns gained
// publishers, after an input's keywords changed (and changed back),
// after a resync replaced every state, and with one campaign named
// twice in the inputs, once under other keywords.
func TestKeptViewReportsMatchFullAudit(t *testing.T) {
	t.Run("new_publishers", func(t *testing.T) {
		w, rng, e := newKeptWorld(t, 21, 40, Config{})
		before := publishersOf(w)
		w.populate(t, rng, 400)
		w.buildInputs(rng)
		after := publishersOf(w)
		for _, c := range testCampaigns {
			if after[c] <= before[c] {
				t.Fatalf("campaign %s gained no publisher (%d → %d): the test extends nothing", c, before[c], after[c])
			}
		}
		if _, resynced := e.Drain(); resynced {
			t.Fatal("the engine resynced: the views would start over, not be extended")
		}
		requireReportsEqual(t, w, e)
		requireReportsEqual(t, w, e) // extended by nothing
	})

	t.Run("keywords_change", func(t *testing.T) {
		w, _, e := newKeptWorld(t, 22, 300, Config{})
		kept := w.inputs[0].Keywords
		for _, kws := range [][]string{kept[1:], nil, {"zzz-nomatch"}, kept} {
			w.inputs[0].Keywords = kws
			requireReportsEqual(t, w, e)
		}
	})

	t.Run("resync", func(t *testing.T) {
		w, rng, e := newKeptWorld(t, 23, 100, Config{Buffer: 4})
		w.populate(t, rng, 200)
		w.buildInputs(rng)
		if _, resynced := e.Drain(); !resynced {
			t.Fatal("the engine was not dropped despite a buffer overrun")
		}
		requireReportsEqual(t, w, e)
		w.populate(t, rng, 3)
		w.buildInputs(rng)
		e.Drain()
		requireReportsEqual(t, w, e)
	})

	t.Run("campaign_twice", func(t *testing.T) {
		w, rng, e := newKeptWorld(t, 24, 200, Config{})
		first := w.inputs[0]
		other := first
		other.Keywords = append([]string{"zzz-other"}, first.Keywords[1:]...)
		base := w.inputs
		for _, twice := range [][]audit.CampaignInput{
			append(append([]audit.CampaignInput{}, base...), first),
			append([]audit.CampaignInput{first, other}, base[1:]...),
			append([]audit.CampaignInput{other}, base...),
		} {
			w.inputs = twice
			requireReportsEqual(t, w, e)
			w.populate(t, rng, 60)
			e.Drain()
			requireReportsEqual(t, w, e)
		}
	})
}

// TestKeptViewAuditAndSummaryMatchFreshEngine: Audit, LiveSummary and
// Summaries read the same kept views; after the campaigns gained
// publishers they answer what an engine primed afresh from the store
// answers.
func TestKeptViewAuditAndSummaryMatchFreshEngine(t *testing.T) {
	w := newTestWorld(t, 25)
	rng := rand.New(rand.NewSource(25))
	w.populate(t, rng, 40)
	w.buildInputs(rng)
	keywords, reports := map[string][]string{}, map[string]*adnet.VendorReport{}
	for _, in := range w.inputs {
		keywords[in.ID], reports[in.ID] = in.Keywords, in.Report
	}
	cfg := Config{Store: w.st, Meta: w.meta, Keywords: keywords, Reports: reports}
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, c := range testCampaigns {
		if _, ok, err := e.Audit(c); !ok || err != nil {
			t.Fatalf("Audit(%s): ok=%v err=%v", c, ok, err)
		}
	}
	e.Summaries()

	before := publishersOf(w)
	w.populate(t, rng, 400)
	e.Drain()
	fresh, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, c := range testCampaigns {
		if n := len(w.st.Publishers(c)); n <= before[c] {
			t.Fatalf("campaign %s gained no publisher (%d → %d)", c, before[c], n)
		}
		got, ok, err := e.Audit(c)
		want, _, werr := fresh.Audit(c)
		if !ok || err != nil || werr != nil {
			t.Fatalf("Audit(%s): ok=%v err=%v, fresh err=%v", c, ok, err, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Audit(%s) after new publishers\n got %+v\nwant %+v", c, got, want)
		}
		gotSum, _ := e.LiveSummary(c)
		wantSum, _ := fresh.LiveSummary(c)
		if !reflect.DeepEqual(gotSum, wantSum) {
			t.Errorf("LiveSummary(%s) after new publishers\n got %+v\nwant %+v", c, gotSum, wantSum)
		}
		if gotSum.ContextShare == 0 {
			t.Errorf("LiveSummary(%s) has no contextual match: the keywords resolve nothing", c)
		}
	}
	if got, want := e.Summaries(), fresh.Summaries(); !reflect.DeepEqual(got, want) {
		t.Errorf("Summaries after new publishers\n got %+v\nwant %+v", got, want)
	}
}
