package shardmerge

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"adaudit/internal/adnet"
	"adaudit/internal/audit"
	"adaudit/internal/publisher"
	"adaudit/internal/store"
	"adaudit/internal/streamaudit"
)

// The package's headline test: a workload partitioned onto N shard
// stores by session-nonce hash, audited per shard by unmodified
// streamaudit engines, exported, round-tripped through the container
// (the wire the router really reads), and merged in shard order must produce a report
// reflect.DeepEqual to a batch FullAudit over a single store holding
// the shards' data concatenated in the same shard order — including
// the Table 5 adversarial dimensions, which the workload makes
// non-vacuous.

var mergeCampaigns = []string{"camp-alpha", "camp-beta", "camp-gamma"}

var mergeVerdicts = []string{
	"", "", "", "not-data-center", "not-data-center",
	"vpn-exception", "provider-db", "deny-list", "manual",
}

// shardWorld is N shard stores plus the publisher universe the
// metadata comes from.
type shardWorld struct {
	uni    *publisher.Universe
	meta   audit.MetadataSource
	shards []*store.Store
	inputs []audit.CampaignInput
}

func newShardWorld(t testing.TB, seed int64, n int) *shardWorld {
	t.Helper()
	uni, err := publisher.NewUniverse(publisher.Config{Seed: seed, NumPublishers: 120})
	if err != nil {
		t.Fatalf("NewUniverse: %v", err)
	}
	w := &shardWorld{
		uni:    uni,
		meta:   audit.UniverseMetadata{Universe: uni},
		shards: make([]*store.Store, n),
	}
	for i := range w.shards {
		w.shards[i] = store.New()
	}
	return w
}

// shardFor routes a session key the way the router does — the real
// partition function, so the test's placement matches a live topology.
func shardFor(key string, n int) int { return ShardFor(key, n) }

// TestShardForMatchesFNV pins the hash: the partition function is part
// of the wire contract (a changed hash re-homes every session on a
// rolling upgrade), so a change here must be deliberate.
func TestShardForMatchesFNV(t *testing.T) {
	for _, key := range []string{"", "a", "sm-0001", "adsim-replay-42"} {
		h := fnv.New32a()
		h.Write([]byte(key))
		for _, n := range []int{1, 2, 4, 8} {
			want := 0
			if n > 1 {
				want = int(h.Sum32() % uint32(n))
			}
			if got := ShardFor(key, n); got != want {
				t.Fatalf("ShardFor(%q, %d) = %d, want %d", key, n, got, want)
			}
		}
	}
}

type placed struct {
	shard int
	id    int64
}

// populate drives a seeded workload onto the shards: inserts routed by
// nonce, continuations merged on the owning shard, conversions routed
// by user key (deliberately a different key than impressions — per-user
// state must still merge exactly when a user's conversions land on a
// different shard than their impressions).
func (w *shardWorld) populate(t testing.TB, rng *rand.Rand, n int) {
	t.Helper()
	var ids []placed
	for i := 0; i < n; i++ {
		campaign := mergeCampaigns[rng.Intn(len(mergeCampaigns))]
		var pub string
		if rng.Intn(10) == 0 {
			pub = fmt.Sprintf("offgrid%d.example", rng.Intn(5))
		} else {
			pub = w.uni.At(rng.Intn(w.uni.Len())).Domain
		}
		im := store.Impression{
			CampaignID:  campaign,
			CreativeID:  "cr-1",
			Publisher:   pub,
			UserKey:     fmt.Sprintf("user-%d", rng.Intn(40)),
			IPPseudonym: fmt.Sprintf("ip-%d", rng.Intn(30)),
			UserAgent:   "test-agent",
			DataCenter:  mergeVerdicts[rng.Intn(len(mergeVerdicts))],
			Timestamp:   time.Unix(1700000000, 0).UTC().Add(time.Duration(rng.Intn(86400)) * time.Second),
			Exposure:    time.Duration(rng.Int63n(int64(3 * time.Second))),
			MouseMoves:  rng.Intn(4),
			Clicks:      rng.Intn(2),
			Nonce:       fmt.Sprintf("sm-%04d", i),
		}
		if rng.Intn(3) == 0 {
			im.VisibilityMeasured = true
			im.MaxVisibleFraction = rng.Float64()
		}
		sh := shardFor(im.Nonce, len(w.shards))
		id, err := w.shards[sh].Insert(im)
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		ids = append(ids, placed{sh, id})
		if rng.Intn(4) == 0 {
			cont := store.Continuation{
				Exposure:   time.Duration(rng.Int63n(int64(2 * time.Second))),
				MouseMoves: rng.Intn(3),
				Clicks:     rng.Intn(2),
			}
			if rng.Intn(2) == 0 {
				cont.VisibilityMeasured = true
				cont.MaxVisibleFraction = rng.Float64()
			}
			target := ids[rng.Intn(len(ids))]
			if err := w.shards[target.shard].Merge(target.id, cont); err != nil {
				t.Fatalf("Merge: %v", err)
			}
		}
		if rng.Intn(10) == 0 {
			user := fmt.Sprintf("user-%d", rng.Intn(40))
			_, err := w.shards[shardFor(user, len(w.shards))].InsertConversion(store.Conversion{
				CampaignID: campaign,
				UserKey:    user,
				Action:     "purchase",
				ValueCents: int64(rng.Intn(5000)),
				Timestamp:  time.Unix(1700000000, 0).UTC().Add(time.Duration(rng.Intn(86400)) * time.Second),
			})
			if err != nil {
				t.Fatalf("InsertConversion: %v", err)
			}
		}
	}
}

// populateAdversarial layers the Table 5 attack traffic on: per
// campaign one timer bot (whose nonce-distinct impressions scatter
// across shards — per-user behavioral state must reassemble in the
// merge) and one stacked-1px publisher.
func (w *shardWorld) populateAdversarial(t testing.TB) {
	t.Helper()
	base := time.Unix(1700050000, 0).UTC()
	for ci, c := range mergeCampaigns {
		botPub := w.uni.At((ci * 7) % w.uni.Len()).Domain
		for k := 0; k < 8; k++ {
			nonce := fmt.Sprintf("bot-%d-%d", ci, k)
			sh := shardFor(nonce, len(w.shards))
			id, err := w.shards[sh].Insert(store.Impression{
				CampaignID:         c,
				CreativeID:         "cr-1",
				Publisher:          botPub,
				UserKey:            fmt.Sprintf("timerbot-%d", ci),
				IPPseudonym:        fmt.Sprintf("botip-%d", ci),
				UserAgent:          "bot-agent",
				Timestamp:          base.Add(time.Duration(k) * 30 * time.Second),
				Exposure:           1500 * time.Millisecond,
				VisibilityMeasured: true,
				MaxVisibleFraction: 0.35,
				Nonce:              nonce,
			})
			if err != nil {
				t.Fatalf("Insert bot impression: %v", err)
			}
			if err := w.shards[sh].Merge(id, store.Continuation{
				Exposure:           250 * time.Millisecond,
				VisibilityMeasured: true,
				MaxVisibleFraction: 0.10,
			}); err != nil {
				t.Fatalf("Merge bot impression: %v", err)
			}
		}
		infPub := fmt.Sprintf("stacked%d.example", ci)
		for k := 0; k < 7; k++ {
			nonce := fmt.Sprintf("stack-%d-%d", ci, k)
			_, err := w.shards[shardFor(nonce, len(w.shards))].Insert(store.Impression{
				CampaignID:         c,
				CreativeID:         "cr-1",
				Publisher:          infPub,
				UserKey:            fmt.Sprintf("stackuser-%d-%d", ci, k),
				IPPseudonym:        fmt.Sprintf("stackip-%d-%d", ci, k),
				UserAgent:          "test-agent",
				Timestamp:          base.Add(time.Duration(k) * 7 * time.Minute),
				Exposure:           2 * time.Second,
				VisibilityMeasured: true,
				MaxVisibleFraction: 0.02 + 0.005*float64(k),
				Nonce:              nonce,
			})
			if err != nil {
				t.Fatalf("Insert stacked impression: %v", err)
			}
		}
	}
}

// combined builds the reference single store: every shard's records and
// conversions concatenated in shard order — the order Merge unions
// exports in, which is what makes even the order-sensitive float mean
// bit-identical.
func (w *shardWorld) combined(t testing.TB) *store.Store {
	t.Helper()
	st := store.New()
	for _, sh := range w.shards {
		var err error
		sh.Visit(func(im *store.Impression) bool {
			_, err = st.Insert(*im)
			return err == nil
		})
		if err != nil {
			t.Fatalf("combining shard records: %v", err)
		}
		for _, c := range sh.Conversions("") {
			if _, err := st.InsertConversion(c); err != nil {
				t.Fatalf("combining shard conversions: %v", err)
			}
		}
	}
	return st
}

// buildInputs synthesizes the vendor reports from the combined store:
// honest rows with direct-seller attributions, an anonymous-exchange
// row, a vendor-only phantom, one spoofed row and one pooled seller
// spanning five owner groups — so every adversarial dimension fires.
func (w *shardWorld) buildInputs(t testing.TB, rng *rand.Rand, combined *store.Store) {
	t.Helper()
	groups := map[string]bool{}
	var poolPubs []string
	for i := 0; i < w.uni.Len() && len(poolPubs) < 5; i++ {
		d := w.uni.At(i).Domain
		g := adnet.OwnerGroupOf(d)
		if !groups[g] {
			groups[g] = true
			poolPubs = append(poolPubs, d)
		}
	}
	if len(poolPubs) < 5 {
		t.Fatalf("universe spans only %d owner groups", len(poolPubs))
	}
	w.inputs = nil
	for _, c := range mergeCampaigns {
		pubs := combined.Publishers(c)
		sort.Strings(pubs)
		rep := &adnet.VendorReport{CampaignID: c}
		for i, p := range pubs {
			if i%3 == 2 { // audit-only region of the Venn
				continue
			}
			rep.Rows = append(rep.Rows, adnet.ReportRow{
				Publisher:   p,
				SellerID:    adnet.DirectSellerID(p),
				Impressions: int64(1 + rng.Intn(50)),
				Clicks:      int64(rng.Intn(5)),
			})
		}
		rep.Rows = append(rep.Rows,
			adnet.ReportRow{Publisher: adnet.AnonymousPublisher, SellerID: adnet.ExchangeSellerID, Impressions: int64(10 + rng.Intn(90))},
			adnet.ReportRow{Publisher: "vendoronly.example", Impressions: 7},
			adnet.ReportRow{
				Publisher:   w.uni.At(0).Domain,
				SellerID:    adnet.DirectSellerID("lowquality.example"),
				Impressions: 31,
			})
		for _, p := range poolPubs {
			rep.Rows = append(rep.Rows, adnet.ReportRow{
				Publisher: p, SellerID: "pool-test", Impressions: 5,
			})
		}
		for _, r := range rep.Rows {
			rep.TotalImpressionsCharged += r.Impressions
		}
		rep.ContextualImpressions = rep.TotalImpressionsCharged * 2 / 3
		rep.RefundedImpressions = rep.TotalImpressionsCharged / 10
		w.inputs = append(w.inputs, audit.CampaignInput{ID: c, Keywords: w.keywordsFor(c), Report: rep})
	}
	w.inputs = append(w.inputs, audit.CampaignInput{
		ID:       "camp-ghost",
		Keywords: []string{"phantom"},
		Report:   &adnet.VendorReport{CampaignID: "camp-ghost"},
	})
}

func (w *shardWorld) keywordsFor(campaign string) []string {
	h := 0
	for _, b := range campaign {
		h = h*31 + int(b)
	}
	kws := []string{"zzz-nomatch"}
	for i := 0; i < 3; i++ {
		p := w.uni.At((h + i*17) % w.uni.Len())
		if len(p.Keywords) > 0 {
			kws = append(kws, p.Keywords[0])
		}
	}
	return kws
}

// exports runs one unmodified streamaudit engine per shard (snapshot
// prime) and collects their exports in shard order.
func (w *shardWorld) exports(t testing.TB) []*streamaudit.Export {
	t.Helper()
	out := make([]*streamaudit.Export, len(w.shards))
	for i, sh := range w.shards {
		eng, err := streamaudit.New(streamaudit.Config{Store: sh, Meta: w.meta})
		if err != nil {
			t.Fatalf("shard %d: streamaudit.New: %v", i, err)
		}
		eng.Drain()
		out[i] = eng.Export()
	}
	return out
}

// roundTrip pushes each export through its container — the wire the
// router fetches over — so the test proves the codec preserves report
// equality, floats included.
func roundTrip(t testing.TB, exports []*streamaudit.Export) []*streamaudit.Export {
	t.Helper()
	out := make([]*streamaudit.Export, len(exports))
	for i, exp := range exports {
		b, err := exp.AppendBinary(nil)
		if err != nil {
			t.Fatalf("shard %d: encode export: %v", i, err)
		}
		out[i] = &streamaudit.Export{}
		if err := out[i].UnmarshalBinary(b); err != nil {
			t.Fatalf("shard %d: decode export: %v", i, err)
		}
	}
	return out
}

func TestShardMergeMatchesFullAudit(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			seed := int64(40 + shards)
			w := newShardWorld(t, seed, shards)
			rng := rand.New(rand.NewSource(seed))
			w.populate(t, rng, 400)
			w.populateAdversarial(t)

			combined := w.combined(t)
			w.buildInputs(t, rng, combined)

			aud, err := audit.New(combined, w.meta)
			if err != nil {
				t.Fatalf("audit.New: %v", err)
			}
			want, err := aud.FullAuditSerial(w.inputs)
			if err != nil {
				t.Fatalf("FullAuditSerial: %v", err)
			}
			// Non-vacuity: every adversarial dimension must have fired,
			// or the deep-equal below proves nothing about Table 5.
			for _, ca := range want.PerCampaign {
				if ca.ID == "camp-ghost" {
					continue
				}
				if len(ca.Sellers.UnauthorizedPairs) == 0 {
					t.Fatalf("campaign %s: no unauthorized seller pairs; adversarial input broken", ca.ID)
				}
				if len(ca.Pooling.PooledSellers) == 0 {
					t.Fatalf("campaign %s: pooling detector silent; adversarial input broken", ca.ID)
				}
				if len(ca.Behavior.BotUsers) == 0 {
					t.Fatalf("campaign %s: behavior detector saw no bots; adversarial input broken", ca.ID)
				}
				if len(ca.Behavior.InflatedPublishers) == 0 {
					t.Fatalf("campaign %s: no inflated publishers; adversarial input broken", ca.ID)
				}
			}

			merged := Merge(roundTrip(t, w.exports(t)))
			eng, err := streamaudit.NewStatic(streamaudit.StaticConfig{Meta: w.meta}, merged)
			if err != nil {
				t.Fatalf("NewStatic: %v", err)
			}
			got, err := eng.Report(w.inputs)
			if err != nil {
				t.Fatalf("merged Report: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("merged shard report != single-store FullAudit (shards=%d)\nmerged: %+v\nbatch:  %+v",
					shards, got, want)
			}

			// And against the parallel batch path, for completeness.
			par, err := aud.FullAudit(w.inputs)
			if err != nil {
				t.Fatalf("FullAudit: %v", err)
			}
			if !reflect.DeepEqual(got, par) {
				t.Fatalf("merged shard report != parallel FullAudit")
			}
		})
	}
}

// TestMergeKeepsKeyBytes: nothing on ingest validates a User-Agent, so
// a user key can hold any bytes, and a user is the same user on every
// shard only if those bytes cross the wire as they are. Two users of one
// IP whose agents are not UTF-8 — seen on both shards — must merge to the
// batch report. (Through format 2's JSON strings both keys became
// "ip-odd|\ufffd": the router refused the shard's export as repeating a
// dictionary key, and a lone such user changed identity.)
func TestMergeKeepsKeyBytes(t *testing.T) {
	w := newShardWorld(t, 13, 2)
	rng := rand.New(rand.NewSource(13))
	w.populate(t, rng, 100)
	for i, ua := range []string{"\xff", "\xfe", "\xff", "", "a|b\x80|"} {
		for sh, st := range w.shards {
			if _, err := st.Insert(store.Impression{
				CampaignID: mergeCampaigns[0], CreativeID: "cr-1", Publisher: "offgrid0.example", UserAgent: ua,
				UserKey: "ip-odd|" + ua, IPPseudonym: "ip-odd", Nonce: fmt.Sprintf("odd-%d-%d", sh, i),
				Timestamp: time.Unix(1700000000, 0).UTC().Add(time.Duration(i) * time.Minute), Exposure: time.Second,
			}); err != nil {
				t.Fatalf("Insert: %v", err)
			}
		}
	}
	if _, err := w.shards[1].InsertConversion(store.Conversion{
		CampaignID: mergeCampaigns[0], UserKey: "ip-odd|\xfe", Action: "purchase", Timestamp: time.Unix(1700000000, 0).UTC(),
	}); err != nil {
		t.Fatalf("InsertConversion: %v", err)
	}
	combined := w.combined(t)
	w.buildInputs(t, rng, combined)
	aud, err := audit.New(combined, w.meta)
	if err != nil {
		t.Fatalf("audit.New: %v", err)
	}
	want, err := aud.FullAuditSerial(w.inputs)
	if err != nil {
		t.Fatalf("FullAuditSerial: %v", err)
	}
	eng, err := streamaudit.NewStatic(streamaudit.StaticConfig{Meta: w.meta}, Merge(roundTrip(t, w.exports(t))))
	if err != nil {
		t.Fatalf("NewStatic: %v", err)
	}
	got, err := eng.Report(w.inputs)
	if err != nil {
		t.Fatalf("merged Report: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged shard report != single-store FullAudit when user keys are not UTF-8")
	}
}

// TestMergeSingleShardIdentity pins the degenerate case: merging one
// shard's export must reproduce that shard's own report exactly.
func TestMergeSingleShardIdentity(t *testing.T) {
	w := newShardWorld(t, 7, 1)
	rng := rand.New(rand.NewSource(7))
	w.populate(t, rng, 200)
	combined := w.combined(t)
	w.buildInputs(t, rng, combined)

	exports := w.exports(t)
	eng, err := streamaudit.NewStatic(streamaudit.StaticConfig{Meta: w.meta}, Merge(exports))
	if err != nil {
		t.Fatalf("NewStatic: %v", err)
	}
	got, err := eng.Report(w.inputs)
	if err != nil {
		t.Fatalf("merged Report: %v", err)
	}
	direct, err := streamaudit.New(streamaudit.Config{Store: w.shards[0], Meta: w.meta})
	if err != nil {
		t.Fatalf("streamaudit.New: %v", err)
	}
	want, err := direct.Report(w.inputs)
	if err != nil {
		t.Fatalf("direct Report: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("single-shard merge != direct engine report")
	}
}

// TestClientFetchMerged covers the HTTP fetch path end to end: two
// httptest shards serving real engine exports, fetched and merged, must
// match the combined-store audit.
func TestClientFetchMerged(t *testing.T) {
	w := newShardWorld(t, 11, 2)
	rng := rand.New(rand.NewSource(11))
	w.populate(t, rng, 150)
	combined := w.combined(t)
	w.buildInputs(t, rng, combined)

	exports := w.exports(t)
	var urls []string
	for i := range exports {
		exp := exports[i]
		srv := httptest.NewServer(http.HandlerFunc(func(wr http.ResponseWriter, r *http.Request) {
			if r.URL.Path != ExportPath {
				http.NotFound(wr, r)
				return
			}
			WriteExport(wr, exp)
		}))
		defer srv.Close()
		urls = append(urls, srv.URL)
	}

	cl := &Client{Shards: urls}
	merged, err := cl.FetchMerged(context.Background())
	if err != nil {
		t.Fatalf("FetchMerged: %v", err)
	}
	eng, err := streamaudit.NewStatic(streamaudit.StaticConfig{Meta: w.meta}, merged)
	if err != nil {
		t.Fatalf("NewStatic: %v", err)
	}
	got, err := eng.Report(w.inputs)
	if err != nil {
		t.Fatalf("merged Report: %v", err)
	}
	aud, err := audit.New(combined, w.meta)
	if err != nil {
		t.Fatalf("audit.New: %v", err)
	}
	want, err := aud.FullAuditSerial(w.inputs)
	if err != nil {
		t.Fatalf("FullAuditSerial: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fetched+merged report != single-store FullAudit")
	}

	// One dead shard must fail the fetch, not silently shrink the data.
	cl = &Client{Shards: append(append([]string(nil), urls...), "http://127.0.0.1:1"), Timeout: 2 * time.Second}
	if _, err := cl.FetchMerged(context.Background()); err == nil {
		t.Fatalf("FetchMerged with an unreachable shard: want error, got nil")
	}

	// So must a shard whose export does not validate: the router never
	// merges an export it could not check.
	good, err := exports[0].AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := httptest.NewServer(http.HandlerFunc(func(wr http.ResponseWriter, r *http.Request) {
		wr.Write(good[:len(good)-1])
	}))
	defer bad.Close()
	cl = &Client{Shards: append(append([]string(nil), urls...), bad.URL)}
	if _, err := cl.FetchMerged(context.Background()); err == nil || !strings.Contains(err.Error(), "decoding export") {
		t.Fatalf("FetchMerged with a shard serving an invalid export: %v", err)
	}
}

// TestClientRefusesOversizeExport: a shard that declares more than the
// bound is refused before its body is read, with an error that names
// the bound — not cut off at the bound and then reported as a truncated
// export ("unexpected EOF"). The server sends none of the body it
// declares, so the test moves no 256 MiB.
func TestClientRefusesOversizeExport(t *testing.T) {
	huge := httptest.NewServer(http.HandlerFunc(func(wr http.ResponseWriter, r *http.Request) {
		wr.Header().Set("Content-Length", strconv.Itoa(maxExportBytes+1))
	}))
	defer huge.Close()
	_, err := (&Client{Shards: []string{huge.URL}}).FetchExports(context.Background())
	if err == nil || !strings.Contains(err.Error(), strconv.Itoa(maxExportBytes)) {
		t.Fatalf("a shard declaring %d bytes: %v", maxExportBytes+1, err)
	}
}

// TestWriteExport: the collector and the router serve an export through
// WriteExport — its container raw, or a 500 naming why there is none —
// and a merge over a shard that failed fails the same way.
func TestWriteExport(t *testing.T) {
	w := newShardWorld(t, 5, 1)
	w.populate(t, rand.New(rand.NewSource(5)), 40)
	exp := w.exports(t)[0]
	rec := httptest.NewRecorder()
	WriteExport(rec, exp)
	want, err := exp.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/octet-stream" ||
		rec.Header().Get("Content-Length") != strconv.Itoa(len(want)) || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("served %d %q, %d bytes", rec.Code, rec.Header().Get("Content-Type"), rec.Body.Len())
	}
	if !bytes.HasPrefix(want, []byte(streamaudit.ExportMagic)) {
		t.Fatalf("the container does not open with the magic: %.8q", want)
	}

	failed := streamaudit.NewExport(1, map[string]*audit.State{"c": nil})
	for name, x := range map[string]*streamaudit.Export{"failed export": failed, "merge over it": Merge([]*streamaudit.Export{exp, failed})} {
		rec := httptest.NewRecorder()
		WriteExport(rec, x)
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), `no state for campaign "c"`) {
			t.Errorf("%s: served %d %q", name, rec.Code, rec.Body.String())
		}
	}
}
