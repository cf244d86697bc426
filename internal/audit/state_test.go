package audit

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"adaudit/internal/adnet"
	"adaudit/internal/bytecodec"
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
// store and sends each through its packed form.
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
			b, err := s.AppendBinary(nil)
			if err != nil {
				t.Fatal(err)
			}
			out[i][id] = new(State)
			if err := out[i][id].UnmarshalBinary(b); err != nil {
				t.Fatalf("shard %d, campaign %s: own encoding rejected: %v", i, id, err)
			}
		}
	}
	return out
}

// MarshalText lets the tests compare states through encoding/json: the
// packed form in base64. The package itself gives a state no text form;
// a state travels inside a streamaudit export container.
func (s *State) MarshalText() ([]byte, error) {
	bin, err := s.AppendBinary(nil)
	return base64.StdEncoding.AppendEncode(nil, bin), err
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
			got, err := a.ReportStates(states, nil, w.inputs)
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

// tinyState is a state small enough to read in hex: two impressions by
// two users (one key with a tail, one without) on one publisher, and
// two conversions, one by a user never exposed.
func tinyState() *State {
	s := NewState()
	s.Insert(&store.Impression{UserKey: "ip1|UA", Publisher: "p.example", IPPseudonym: "ip1", DataCenter: "deny-list",
		Timestamp: base, Exposure: 1500 * time.Millisecond, VisibilityMeasured: true, MaxVisibleFraction: 0.75, Clicks: 1})
	s.Insert(&store.Impression{UserKey: "plain", Publisher: "p.example", IPPseudonym: "ip2",
		Timestamp: base.Add(time.Second), Exposure: 250 * time.Millisecond})
	s.Convert("ip1|UA")
	s.Convert("ghost|UA2")
	return s
}

// encoding is the packed form spelled out part by part, so a test can
// get one part wrong; tinyParts is tinyState's.
type encoding struct {
	slots                    uint64
	clicks                   int64
	first, last              time.Time
	heads                    []string // the IPs first
	ips                      uint64
	dc                       []byte
	tails                    []string
	users                    uint64
	userRefs                 []int32 // head, tail+1 per user
	pubs, verdicts           []string
	convs                    uint64
	convRefs                 []int32
	convCounts               []int64
	userOf, pubOf, verdictOf []int32
	times                    []int64
	exposures                []float64
	measured                 []byte
	frac                     []float64
}

func tinyParts() encoding {
	return encoding{
		slots: 2, clicks: 1, first: base, last: base.Add(time.Second),
		heads: []string{"ip1", "ip2", "plain", "ghost"}, ips: 2, dc: []byte{1, 0}, tails: []string{"UA", "UA2"},
		users: 2, userRefs: []int32{0, 1, 2, 0}, pubs: []string{"p.example"}, verdicts: []string{"deny-list", ""},
		convs: 2, convRefs: []int32{3, 2, 0, 1}, convCounts: []int64{1, 1},
		userOf: []int32{0, 1}, pubOf: []int32{0, 0}, verdictOf: []int32{0, 1},
		times:     []int64{base.UnixNano(), base.Add(time.Second).UnixNano()},
		exposures: []float64{1.5, 0.25}, measured: []byte{1, 0}, frac: []float64{0.75, 0},
	}
}

func (e encoding) bytes() []byte {
	b := binary.AppendUvarint(nil, e.slots)
	b = binary.AppendVarint(b, e.clicks)
	b = bytecodec.AppendTime(bytecodec.AppendTime(b, e.first), e.last)
	b = append(binary.AppendUvarint(appendStrings(b, e.heads), e.ips), e.dc...)
	b = appendStrings(b, e.tails)
	b = appendUvarints(binary.AppendUvarint(b, e.users), e.userRefs)
	b = appendStrings(appendStrings(b, e.pubs), e.verdicts)
	b = appendUvarints(binary.AppendUvarint(b, e.convs), e.convRefs)
	for _, k := range e.convCounts {
		b = binary.AppendVarint(b, k)
	}
	b = appendUvarints(appendUvarints(appendUvarints(b, e.userOf), e.pubOf), e.verdictOf)
	for _, t := range e.times {
		b = binary.LittleEndian.AppendUint64(b, uint64(t))
	}
	b = append(appendFloats(b, e.exposures), e.measured...)
	return appendFloats(b, e.frac)
}

// The layout is a wire contract between a shard and a router that may
// not be the same build: if these bytes change, ExportVersion must.
func TestStateEncodingGolden(t *testing.T) {
	got, err := tinyState().AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if spelled := tinyParts().bytes(); !bytes.Equal(got, spelled) {
		t.Fatalf("AppendBinary and the test's part-by-part encoding disagree\n got %x\nwant %x", got, spelled)
	}
	golden, err := os.ReadFile("testdata/state_v3.hex")
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.Join(strings.Fields(string(golden)), ""))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the packed form of a state changed; a mixed-version fleet would split. Bump streamaudit.ExportVersion with it.\n got %x\nwant %x", got, want)
	}
	back := new(State)
	if err := back.UnmarshalBinary(want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, tinyState()) {
		t.Fatalf("the golden encoding decodes to %+v", back)
	}
}

// Keys are bytes, not text: whatever a User-Agent held, a user is the
// same user on the far side of the wire. (Format 2 sent keys through
// encoding/json, which rewrites invalid UTF-8 to U+FFFD: "ip|\xff" and
// "ip|\xfe" became one key and the router refused the shard.)
func TestStateKeysRoundTripBytes(t *testing.T) {
	keys := []string{"plain", "|leading", "trailing|", "a|b|c", "", "|", "ip|\xff", "ip|\xfe", "\xc3|\x28", "ip|Mozilla/5.0"}
	s := NewState()
	for i, k := range keys {
		s.Insert(&store.Impression{UserKey: k, Publisher: k, IPPseudonym: k, DataCenter: k,
			Timestamp: base.Add(time.Duration(i) * time.Second), Exposure: time.Duration(i) * time.Second})
		s.Convert(k)
		s.Convert("never-exposed-" + k)
	}
	c := &s.cols
	if len(c.Users.keys) != len(keys) || len(c.Pubs.keys) != len(keys) || len(c.IPs) != len(keys) || len(c.Convs) != 2*len(keys) {
		t.Fatalf("the test's keys are not distinct")
	}
	bin, err := s.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	back := new(State)
	if err := back.UnmarshalBinary(bin); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, s) {
		t.Errorf("through its packed form the state became\n%+v\nfrom\n%+v", back, s)
	}
}

// Sharing tails is the format's compression, and nothing on ingest bounds
// a User-Agent: thousands of users behind one very long one are a state
// like any other, however few bytes of encoding spell out their keys.
// What the format does refuse, more than maxKeyBytes of keys, the encoder
// refuses too, so a shard never exports what its router would reject.
func TestStateLongSharedTails(t *testing.T) {
	s, agent := NewState(), strings.Repeat("Mozilla/5.0 (long) ", 400) // 7.6 KB
	for i := 0; i < 3000; i++ {
		ip := fmt.Sprintf("ip%d", i)
		s.Insert(&store.Impression{UserKey: ip + "|" + agent, Publisher: "p.example", IPPseudonym: ip, Timestamp: base})
		s.Convert(fmt.Sprintf("ghost%d|%s", i, agent))
	}
	bin, err := s.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if keys := 2 * 3000 * len(agent); len(bin)*100 > keys {
		t.Fatalf("%d bytes of encoding for %d of keys: the test shares no tail", len(bin), keys)
	}
	back := new(State)
	if err := back.UnmarshalBinary(bin); err != nil {
		t.Fatalf("own encoding rejected: %v", err)
	}
	if !reflect.DeepEqual(back, s) {
		t.Fatal("state changed across its own encoding")
	}

	// 65 keys of 4 MiB and more, all cut from one string.
	s, long := NewState(), strings.Repeat("A", 4<<20+64)
	for i := 0; i <= 64; i++ {
		s.Convert(long[i:])
	}
	if bin, err := s.AppendBinary(nil); err == nil || !strings.Contains(err.Error(), "bytes of user keys") {
		t.Fatalf("a state with %d MiB of keys encoded to %d bytes, error %v", 65*4, len(bin), err)
	}
}

// A state from outside is checked before it is used. Every encoding
// below is rejected, for the reason named.
func TestStateDecodeRejects(t *testing.T) {
	good := tinyParts().bytes()
	if err := new(State).UnmarshalBinary(good); err != nil {
		t.Fatalf("well-formed state rejected: %v", err)
	}
	for cut := range good {
		if err := new(State).UnmarshalBinary(good[:cut]); err == nil {
			t.Errorf("accepted the first %d of %d bytes", cut, len(good))
		}
	}
	nan := math.NaN()
	for name, c := range map[string]struct {
		edit func(*encoding)
		want string
	}{
		"a trailing byte":                  {func(e *encoding) { e.frac = append(e.frac, 0) }, "follow the last column"},
		"publisher id past the dictionary": {func(e *encoding) { e.pubOf[1] = 9 }, "publisher id 9"},
		"unused dictionary entry":          {func(e *encoding) { e.verdicts = append(e.verdicts, "manual") }, "in no slot"},
		"repeated dictionary key":          {func(e *encoding) { e.userRefs[2], e.userRefs[3] = 0, 1 }, "repeats one"},
		"repeated IP":                      {func(e *encoding) { e.heads[1] = "ip1" }, "listed twice"},
		"repeated converting user":         {func(e *encoding) { e.convRefs[2], e.convRefs[3] = 3, 2 }, "listed twice"},
		"more IPs than heads":              {func(e *encoding) { e.ips = 5 }, "5 IPs among 4"},
		"visibility flag 2":                {func(e *encoding) { e.measured[0] = 2 }, "neither 0 nor 1"},
		"data-center flag 2":               {func(e *encoding) { e.dc[1] = 2 }, "neither 0 nor 1"},
		"tail past the table":              {func(e *encoding) { e.userRefs[1] = 3 }, "tail 3 of 2"},
		"head past the table":              {func(e *encoding) { e.convRefs[0] = 4 }, "head 4 of 4"},
		"NaN exposure":                     {func(e *encoding) { e.exposures[1] = nan }, "NaN"},
		"infinite visible fraction":        {func(e *encoding) { e.frac[0] = math.Inf(1) }, "+Inf"},
		"short column":                     {func(e *encoding) { e.times = e.times[:1] }, ""},
		"more slots than columns":          {func(e *encoding) { e.slots = 3 }, ""},
		"key bomb": {func(e *encoding) { // 80 KB that spell out 320 MB
			e.tails = append(e.tails, strings.Repeat("A", 1<<16))
			for i := 0; i < 5000; i++ { // so many users of IP 2 with the one long tail; what repeats is never reached
				e.convs, e.convRefs, e.convCounts = e.convs+1, append(e.convRefs, 1, 3), append(e.convCounts, 1)
			}
		}, "bytes of user keys"},
	} {
		e := tinyParts()
		c.edit(&e)
		err := new(State).UnmarshalBinary(e.bytes())
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error about %q", name, err, c.want)
		}
	}

	// A length spelled in more bytes than it needs — the empty verdict's
	// 0 as 0x80 0x00 — is refused: a state has one encoding.
	table := appendStrings(nil, tinyParts().verdicts)
	long := bytes.Replace(good, table, slices.Concat(table[:2], []byte{0x80, 0x00}, table[3:]), 1)
	if err := new(State).UnmarshalBinary(long); len(long) != len(good)+1 || err == nil || !strings.Contains(err.Error(), "non-canonical") {
		t.Errorf("an overlong length (%d bytes for %d): %v", len(long), len(good), err)
	}

	// A time RFC 3339 has no way to write (the JSON views could not show
	// it): a second of 2e9 ns, a zone a day off, the year 10000.
	for _, tm := range [][3]int64{{0, 2e9, 0}, {0, 0, 86400}, {0, 0, -86400}, {253402300800, 0, 0}, {-62167219201, 0, 0}} {
		r := bytecodec.NewReader(binary.AppendVarint(binary.AppendUvarint(binary.AppendVarint(nil, tm[0]), uint64(tm[1])), tm[2]))
		if got := r.Time(); r.Err() == nil {
			t.Errorf("time %v accepted as %v", tm, got)
		}
	}

	// No count is believed before it is held against the bytes that are
	// there: 2^40 written over any byte of a good encoding — slots,
	// table sizes, string lengths, whatever that byte was — allocates
	// nothing of the kind, starting with the 12-byte document that is
	// nothing but the claim.
	huge := binary.AppendUvarint(nil, 1<<40)
	docs := [][]byte{append(huge, make([]byte, 12-len(huge))...)}
	for i := range good {
		docs = append(docs, slices.Concat(good[:i], huge, good[i+1:]))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, doc := range docs {
		_ = new(State).UnmarshalBinary(doc) // some land in a float and decode; none may believe the count
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(len(docs))<<12 {
		t.Errorf("decoding %d small documents that claim 2^40 of something allocated %d bytes", len(docs), got)
	}
	if err := new(State).UnmarshalBinary(docs[0]); err == nil || !strings.Contains(err.Error(), "1099511627776") {
		t.Errorf("the 12-byte claim of 2^40 slots: %v", err)
	}
}

// FuzzStateBinary feeds arbitrary bytes to the state decoder directly
// (FuzzExportRoundTrip in internal/shardmerge reaches it only through
// an export container, whose lengths a mutator rarely keeps straight). Nothing may panic; what
// decodes must re-encode to something that decodes to the same state,
// and that encoding is the state's one encoding.
func FuzzStateBinary(f *testing.F) {
	f.Add(tinyParts().bytes())
	for _, edit := range []func(*encoding){
		func(e *encoding) { e.heads[2], e.heads[1], e.first = "\xff|", "", time.Time{} },
		func(e *encoding) { e.convCounts[0], e.clicks, e.times[0], e.exposures[1] = -3, -1, -5, 1e308 },
		func(e *encoding) { e.pubOf[1] = 9 },
		func(e *encoding) { e.slots = 1 << 40 },
	} {
		e := tinyParts()
		edit(&e)
		f.Add(e.bytes())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s := new(State)
		if err := s.UnmarshalBinary(b); err != nil {
			return
		}
		again, err := s.AppendBinary(nil)
		if err != nil {
			t.Fatalf("accepted state does not re-encode: %v", err)
		}
		back := new(State)
		if err := back.UnmarshalBinary(again); err != nil {
			t.Fatalf("re-encoded state rejected: %v\n%x", err, again)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("state changed across its own encoding\n%x\n%x", b, again)
		}
		if third, _ := back.AppendBinary(nil); !bytes.Equal(third, again) {
			t.Fatalf("one state, two encodings\n%x\n%x", again, third)
		}
		s.Summary()
	})
}
