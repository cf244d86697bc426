package audit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"adaudit/internal/adnet"
	"adaudit/internal/store"
)

// stateWorld is one seeded random dataset: a store mutated by inserts,
// exposure merges and conversions in random interleaving, the feed
// events those mutations published, and inputs covering every campaign
// shape — with impressions, with conversions only, with nothing at all.
type stateWorld struct {
	st     *store.Store
	events []store.FeedEvent
	meta   fakeMeta
	inputs []CampaignInput
}

func newStateWorld(t *testing.T, seed int64) *stateWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := &stateWorld{st: store.New(), meta: fakeMeta{}}
	sub := w.st.Subscribe(1<<14, nil, nil)
	campaigns := []string{"c0", "c1", "c2"}
	verdicts := []string{"", "not-data-center", "not-data-center", "vpn-exception", "provider-db", "deny-list"}
	var ids []int64
	for op, ops := 0, rng.Intn(500); op < ops; op++ {
		user := fmt.Sprintf("u%d", rng.Intn(25))
		switch k := rng.Intn(10); {
		case k == 0: // often before the user's first impression, sometimes in a campaign that never gets one
			camp := append(campaigns, "conversions-only")[rng.Intn(4)]
			if _, err := w.st.InsertConversion(store.Conversion{CampaignID: camp, UserKey: user, Action: "buy", Timestamp: base}); err != nil {
				t.Fatal(err)
			}
		case k <= 2 && len(ids) > 0:
			cont := store.Continuation{Exposure: time.Duration(rng.Int63n(int64(2 * time.Second))), Clicks: rng.Intn(2)}
			if rng.Intn(2) == 0 {
				cont.VisibilityMeasured, cont.MaxVisibleFraction = true, rng.Float64()
			}
			if err := w.st.Merge(ids[rng.Intn(len(ids))], cont); err != nil {
				t.Fatal(err)
			}
		default:
			p := rng.Intn(12)
			pub := fmt.Sprintf("p%d.example", p)
			if p%4 != 0 { // every fourth publisher has no metadata
				w.meta[pub] = PublisherMeta{Rank: 1 + 7000*p, Keywords: []string{"research"}, Topics: []string{"science"}, Unsafe: p == 5}
			}
			im := store.Impression{
				CampaignID: campaigns[rng.Intn(len(campaigns))], CreativeID: "cr", Publisher: pub, UserAgent: "UA",
				UserKey: user, IPPseudonym: "ip-" + user, DataCenter: verdicts[rng.Intn(len(verdicts))],
				Timestamp: base.Add(time.Duration(rng.Intn(4000)) * time.Second),
				Exposure:  time.Duration(rng.Int63n(int64(3 * time.Second))), Clicks: rng.Intn(2),
			}
			if rng.Intn(3) == 0 {
				im.VisibilityMeasured, im.MaxVisibleFraction = true, rng.Float64()
			}
			id, err := w.st.Insert(im)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
	}
	sub.Close()
	for ev := range sub.Events() {
		w.events = append(w.events, ev)
	}
	if sub.Dropped() {
		t.Fatal("feed dropped the recorder; raise its buffer")
	}
	for _, id := range append(campaigns, "conversions-only", "never-seen") {
		rep := &adnet.VendorReport{CampaignID: id, TotalImpressionsCharged: 50, ContextualImpressions: 20}
		for i, pub := range w.st.Publishers(id) {
			if i%3 != 2 {
				rep.Rows = append(rep.Rows, adnet.ReportRow{Publisher: pub, SellerID: adnet.DirectSellerID(pub), Impressions: 3})
			}
		}
		rep.Rows = append(rep.Rows, adnet.ReportRow{Publisher: "vendoronly.example", Impressions: 7})
		w.inputs = append(w.inputs, CampaignInput{ID: id, Keywords: []string{"research"}, Report: rep})
	}
	return w
}

// fed replays the recorded feed into states, the way the streaming
// engine consumes it: inserts append, merges overwrite their slot.
func (w *stateWorld) fed() map[string]*State {
	type ref struct {
		s    *State
		slot int
	}
	states, recs := map[string]*State{}, map[int64]ref{}
	at := func(id string) *State {
		if states[id] == nil {
			states[id] = NewState()
		}
		return states[id]
	}
	for i := range w.events {
		switch ev := &w.events[i]; ev.Kind {
		case store.FeedInsert:
			s := at(ev.Im.CampaignID)
			recs[ev.Im.ID] = ref{s, s.Insert(&ev.Im)}
		case store.FeedMerge:
			recs[ev.Im.ID].s.Update(recs[ev.Im.ID].slot, &ev.Im, ev.Prev)
		case store.FeedConversion:
			at(ev.Conv.CampaignID).Convert(ev.Conv.UserKey)
		}
	}
	return states
}

// shardStates cuts the store's records, in insertion order, into k
// contiguous runs at random points (so some are empty), deals the
// conversions out at random, fills each shard's states from its own
// store and sends each through its JSON form.
func (w *stateWorld) shardStates(t *testing.T, rng *rand.Rand, k int) []map[string]*State {
	t.Helper()
	cuts := make([]int, k-1)
	for i := range cuts {
		cuts[i] = rng.Intn(w.st.Len() + 1)
	}
	shards := make([]*store.Store, k)
	for i := range shards {
		shards[i] = store.New()
	}
	n := 0
	w.st.Visit(func(im *store.Impression) bool {
		sh := 0
		for _, c := range cuts {
			if n >= c {
				sh++
			}
		}
		n++
		if _, err := shards[sh].Insert(*im); err != nil {
			t.Fatal(err)
		}
		return true
	})
	for _, c := range w.st.Conversions("") {
		if _, err := shards[rng.Intn(k)].InsertConversion(c); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]map[string]*State, k)
	for i, sh := range shards {
		out[i] = map[string]*State{}
		for id, s := range newAuditor(t, sh, w.meta).fillAll(1) {
			b, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			out[i][id] = new(State)
			if err := json.Unmarshal(b, out[i][id]); err != nil {
				t.Fatalf("shard %d, campaign %s: own encoding rejected: %v", i, id, err)
			}
		}
	}
	return out
}

// mergeAll merges shards' states in shard order; nil shards are skipped.
func mergeAll(shards []map[string]*State) map[string]*State {
	out := map[string]*State{}
	for _, sh := range shards {
		for id, s := range sh {
			if out[id] == nil {
				out[id] = NewState()
			}
			out[id].Merge(s)
		}
	}
	return out
}

// The state's contract: however the rows got there — one pass over the
// store, the feed's inserts and updates, or a merge of per-shard states
// in shard order, through JSON — the folds materialise the same report.
func TestStatePathsAgree(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		w := newStateWorld(t, seed)
		a := newAuditor(t, w.st, w.meta)
		want, err := a.FullAuditSerial(w.inputs)
		if err != nil {
			t.Fatal(err)
		}
		check := func(path string, states map[string]*State) {
			t.Helper()
			got, err := a.ReportStates(states, w.inputs)
			if err != nil {
				t.Fatalf("seed %d, %s: %v", seed, path, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: report from %s differs from the one-pass fill\n got %+v\nwant %+v", seed, path, got, want)
			}
		}
		check("feed events", w.fed())
		rng := rand.New(rand.NewSource(seed))
		for _, k := range []int{1, 2, 3, 8} {
			shards := w.shardStates(t, rng, k)
			shards = append(shards[:k/2:k/2], append([]map[string]*State{nil, {}}, shards[k/2:]...)...)
			check(fmt.Sprintf("a %d-way merge", k), mergeAll(shards))
		}

		// Merge is associative: (a·b)·c and a·(b·c) are the same state.
		three := w.shardStates(t, rng, 3)
		left := mergeAll([]map[string]*State{mergeAll(three[:2]), three[2]})
		right := mergeAll([]map[string]*State{three[0], mergeAll(three[1:])})
		lb, _ := json.Marshal(left)
		rb, _ := json.Marshal(right)
		if !bytes.Equal(lb, rb) {
			t.Fatalf("seed %d: Merge is not associative", seed)
		}
		check("a regrouped merge", right)
	}
}

// A state from outside is checked before it is used: the documents
// below are each rejected, the first being the one that used to reach a
// fold and index out of range.
func TestStateDecodeRejects(t *testing.T) {
	good := `{"users":["u"],"publishers":["p"],"verdicts":[""],"user_of":[0],"pub_of":[0],"verdict_of":[0],"times":[1],"exposures":[1],"vis_measured":[false],"vis_frac":[0]}`
	if err := json.Unmarshal([]byte(good), new(State)); err != nil {
		t.Fatalf("well-formed state rejected: %v", err)
	}
	for name, edit := range map[string][2]string{
		"publisher id past the dictionary": {`"pub_of":[0]`, `"pub_of":[9]`},
		"negative user id":                 {`"user_of":[0]`, `"user_of":[-1]`},
		"short column":                     {`"times":[1]`, `"times":[]`},
		"repeated dictionary key":          {`"users":["u"]`, `"users":["u","u"]`},
		"unused dictionary entry":          {`"verdicts":[""]`, `"verdicts":["","manual"]`},
		"wrong type":                       {`"exposures":[1]`, `"exposures":["1"]`},
	} {
		doc := strings.Replace(good, edit[0], edit[1], 1)
		if err := json.Unmarshal([]byte(doc), new(State)); err == nil {
			t.Errorf("%s: accepted %s", name, doc)
		}
	}
}
