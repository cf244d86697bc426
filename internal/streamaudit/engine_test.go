package streamaudit

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"adaudit/internal/adnet"
	"adaudit/internal/audit"
	"adaudit/internal/publisher"
	"adaudit/internal/store"
)

// testWorld is a seeded synthetic workload: a publisher universe for
// metadata, a store, and the campaign inputs (keywords + synthesized
// vendor reports) both audit paths are queried with.
type testWorld struct {
	uni    *publisher.Universe
	meta   audit.MetadataSource
	st     *store.Store
	inputs []audit.CampaignInput
}

var testCampaigns = []string{"camp-alpha", "camp-beta", "camp-gamma"}

var testVerdicts = []string{
	"", "", "", "not-data-center", "not-data-center",
	"vpn-exception", "provider-db", "deny-list", "manual",
}

func newTestWorld(t testing.TB, seed int64) *testWorld {
	t.Helper()
	uni, err := publisher.NewUniverse(publisher.Config{Seed: seed, NumPublishers: 120})
	if err != nil {
		t.Fatalf("NewUniverse: %v", err)
	}
	w := &testWorld{
		uni:  uni,
		meta: audit.UniverseMetadata{Universe: uni},
		st:   store.New(),
	}
	return w
}

// impression fabricates one valid record. Exposures use raw nanosecond
// values so the order-sensitive float mean is actually stressed, and a
// slice of publishers falls outside the universe (unknown metadata).
func (w *testWorld) impression(rng *rand.Rand, campaign string) store.Impression {
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
		DataCenter:  testVerdicts[rng.Intn(len(testVerdicts))],
		Timestamp:   time.Unix(1700000000, 0).Add(time.Duration(rng.Intn(86400)) * time.Second),
		Exposure:    time.Duration(rng.Int63n(int64(3 * time.Second))),
		MouseMoves:  rng.Intn(4),
		Clicks:      rng.Intn(2),
	}
	if rng.Intn(3) == 0 {
		im.VisibilityMeasured = true
		im.MaxVisibleFraction = rng.Float64()
	}
	return im
}

// populate inserts n impressions (returning their IDs), merges
// continuations into a fraction of them, and records a few conversions.
func (w *testWorld) populate(t testing.TB, rng *rand.Rand, n int) []int64 {
	t.Helper()
	ids := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		campaign := testCampaigns[rng.Intn(len(testCampaigns))]
		id, err := w.st.Insert(w.impression(rng, campaign))
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		ids = append(ids, id)
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
			if err := w.st.Merge(ids[rng.Intn(len(ids))], cont); err != nil {
				t.Fatalf("Merge: %v", err)
			}
		}
		if rng.Intn(10) == 0 {
			_, err := w.st.InsertConversion(store.Conversion{
				CampaignID: campaign,
				UserKey:    fmt.Sprintf("user-%d", rng.Intn(40)),
				Action:     "purchase",
				ValueCents: int64(rng.Intn(5000)),
				Timestamp:  time.Unix(1700000000, 0).Add(time.Duration(rng.Intn(86400)) * time.Second),
			})
			if err != nil {
				t.Fatalf("InsertConversion: %v", err)
			}
		}
	}
	return ids
}

// buildInputs synthesizes per-campaign vendor reports from the store
// contents, the way the simulation oracle does: rows for a subset of
// the audited publishers (so the Venn has all three regions), an
// anonymous-inventory row, and a vendor-only phantom publisher. It also
// appends a campaign the store never saw, to pin down empty-campaign
// parity between the two audit paths.
func (w *testWorld) buildInputs(rng *rand.Rand) {
	w.inputs = nil
	for _, c := range testCampaigns {
		pubs := w.st.Publishers(c)
		sort.Strings(pubs)
		rep := &adnet.VendorReport{CampaignID: c}
		for i, p := range pubs {
			if i%3 == 2 { // audit-only region
				continue
			}
			rep.Rows = append(rep.Rows, adnet.ReportRow{
				Publisher:   p,
				Impressions: int64(1 + rng.Intn(50)),
				Clicks:      int64(rng.Intn(5)),
			})
		}
		rep.Rows = append(rep.Rows,
			adnet.ReportRow{Publisher: adnet.AnonymousPublisher, Impressions: int64(10 + rng.Intn(90))},
			adnet.ReportRow{Publisher: "vendoronly.example", Impressions: 7},
		)
		for _, r := range rep.Rows {
			rep.TotalImpressionsCharged += r.Impressions
		}
		rep.ContextualImpressions = rep.TotalImpressionsCharged * 2 / 3
		rep.RefundedImpressions = rep.TotalImpressionsCharged / 10
		kw := w.keywordsFor(c)
		w.inputs = append(w.inputs, audit.CampaignInput{ID: c, Keywords: kw, Report: rep})
	}
	w.inputs = append(w.inputs, audit.CampaignInput{
		ID:       "camp-ghost",
		Keywords: []string{"phantom"},
		Report:   &adnet.VendorReport{CampaignID: "camp-ghost"},
	})
}

// keywordsFor returns targeting keywords that actually match part of
// the universe (drawn from real publisher keyword lists) plus one that
// matches nothing.
func (w *testWorld) keywordsFor(campaign string) []string {
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

func (w *testWorld) auditor(t testing.TB) *audit.Auditor {
	t.Helper()
	a, err := audit.New(w.st, w.meta)
	if err != nil {
		t.Fatalf("audit.New: %v", err)
	}
	return a
}

// requireReportsEqual asserts the headline guarantee: at quiescence the
// streaming report deep-equals the batch report (serial and parallel).
func requireReportsEqual(t *testing.T, w *testWorld, e *Engine) {
	t.Helper()
	got, err := e.Report(w.inputs)
	if err != nil {
		t.Fatalf("streaming Report: %v", err)
	}
	a := w.auditor(t)
	want, err := a.FullAuditSerial(w.inputs)
	if err != nil {
		t.Fatalf("FullAuditSerial: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streaming report != batch report\nstream: %+v\nbatch:  %+v", got, want)
	}
	par, err := a.FullAudit(w.inputs)
	if err != nil {
		t.Fatalf("FullAudit: %v", err)
	}
	if !reflect.DeepEqual(got, par) {
		t.Fatalf("streaming report != parallel batch report")
	}
}

// TestReportMatchesFullAudit is the headline contract over several
// seeds, covering both attach orders: an engine primed from a populated
// store (snapshot path) and an engine that watched every event arrive
// (delta path) must both match the batch audit exactly.
func TestReportMatchesFullAudit(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			w := newTestWorld(t, seed)
			rng := rand.New(rand.NewSource(seed))

			// Delta path: subscribe to the empty store, then mutate.
			deltaEng, err := New(Config{Store: w.st, Meta: w.meta})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			w.populate(t, rng, 400)
			w.buildInputs(rng)
			applied, resynced := deltaEng.Drain()
			if resynced {
				t.Fatalf("delta engine resynced; buffer should have held the workload")
			}
			if applied == 0 {
				t.Fatalf("delta engine applied no events")
			}
			if !deltaEng.CaughtUp() {
				t.Fatalf("delta engine not caught up after Drain")
			}
			requireReportsEqual(t, w, deltaEng)

			// Snapshot path: a fresh engine primes from current contents.
			snapEng, err := New(Config{Store: w.st, Meta: w.meta})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			requireReportsEqual(t, w, snapEng)

			// Mixed path: more mutations on top of the snapshot prime.
			w.populate(t, rng, 150)
			w.buildInputs(rng)
			snapEng.Drain()
			deltaEng.Drain()
			requireReportsEqual(t, w, snapEng)
			requireReportsEqual(t, w, deltaEng)
		})
	}
}

// TestReportNilVendorReport pins the error contract to the batch path's.
func TestReportNilVendorReport(t *testing.T) {
	w := newTestWorld(t, 1)
	e, err := New(Config{Store: w.st, Meta: w.meta})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_, gotErr := e.Report([]audit.CampaignInput{{ID: "c1"}})
	_, wantErr := w.auditor(t).FullAuditSerial([]audit.CampaignInput{{ID: "c1"}})
	if gotErr == nil || wantErr == nil {
		t.Fatalf("expected errors, got stream=%v batch=%v", gotErr, wantErr)
	}
	if gotErr.Error() != wantErr.Error() {
		t.Fatalf("error mismatch: stream %q, batch %q", gotErr, wantErr)
	}
}

// TestSlowConsumerResyncConverges stalls an engine behind a tiny feed
// buffer until the bus drops it, then verifies the drop-then-resync
// path: the engine notices, rebuilds from snapshot, and its report
// still deep-equals the batch audit.
func TestSlowConsumerResyncConverges(t *testing.T) {
	w := newTestWorld(t, 7)
	rng := rand.New(rand.NewSource(7))
	e, err := New(Config{Store: w.st, Meta: w.meta, Buffer: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Far more events than the buffer holds, with the consumer stalled.
	w.populate(t, rng, 200)
	w.buildInputs(rng)

	_, resynced := e.Drain()
	if !resynced {
		t.Fatalf("engine was not dropped despite buffer overflow")
	}
	if e.Resyncs() == 0 {
		t.Fatalf("Resyncs() = 0 after drop")
	}
	if !e.CaughtUp() {
		t.Fatalf("engine not caught up after resync")
	}
	requireReportsEqual(t, w, e)

	// The resynced subscription keeps working for subsequent deltas.
	w.populate(t, rng, 3)
	w.buildInputs(rng)
	e.Drain()
	requireReportsEqual(t, w, e)
}

// TestRunConcurrentWithWriters exercises Run-mode consumption under
// concurrent writers (the -race configuration the check script runs):
// after the writers finish and the engine catches up, the report must
// match the batch audit, regardless of how many resyncs happened along
// the way.
func TestRunConcurrentWithWriters(t *testing.T) {
	w := newTestWorld(t, 11)
	e, err := New(Config{Store: w.st, Meta: w.meta, Buffer: 64})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var engDone sync.WaitGroup
	engDone.Add(1)
	go func() {
		defer engDone.Done()
		e.Run(ctx)
	}()

	u := e.Listen()
	defer e.Unlisten(u)

	var wg sync.WaitGroup
	for wtr := 0; wtr < 4; wtr++ {
		wtr := wtr
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + int64(wtr)))
			ids := make([]int64, 0, 100)
			for i := 0; i < 100; i++ {
				campaign := testCampaigns[(wtr+i)%len(testCampaigns)]
				id, err := w.st.Insert(w.impression(rng, campaign))
				if err != nil {
					t.Errorf("Insert: %v", err)
					return
				}
				ids = append(ids, id)
				if i%5 == 0 {
					if err := w.st.Merge(ids[rng.Intn(len(ids))], store.Continuation{
						Exposure: time.Duration(rng.Int63n(int64(time.Second))),
					}); err != nil {
						t.Errorf("Merge: %v", err)
						return
					}
				}
				// Live reads race the apply path on purpose.
				if i%25 == 0 {
					e.Summaries()
				}
			}
		}()
	}
	wg.Wait()

	if !e.WaitCaughtUp(5 * time.Second) {
		t.Fatalf("engine did not catch up: applied %d, feed %d", e.Applied(), w.st.FeedSeq())
	}
	cancel()
	engDone.Wait()

	// The coalescing listener saw dirty campaigns, not events.
	select {
	case <-u.C():
	default:
		t.Fatalf("updates listener never signalled")
	}
	if got := u.Take(); len(got) == 0 {
		t.Fatalf("updates listener had no dirty campaigns")
	}

	rng := rand.New(rand.NewSource(11))
	w.buildInputs(rng)
	requireReportsEqual(t, w, e)
}

// TestEngineReportParallelUnderApply: Report fans its folds out over the
// auditor's pool while holding the engine lock, so readers — full
// reports, single-campaign audits, summaries — may run against an
// engine that is applying inserts, merges and conversions, each seeing
// one consistent cut, and at quiescence the report is the serial batch
// one. Under -race this is the parallel engine's data-race check.
func TestEngineReportParallelUnderApply(t *testing.T) {
	w := newTestWorld(t, 13)
	rng := rand.New(rand.NewSource(13))
	w.populate(t, rng, 300)
	w.buildInputs(rng)
	keywords, reports := map[string][]string{}, map[string]*adnet.VendorReport{}
	for _, in := range w.inputs {
		keywords[in.ID], reports[in.ID] = in.Keywords, in.Report
	}
	e, err := New(Config{Store: w.st, Meta: w.meta, Keywords: keywords, Reports: reports})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	e.aud.Parallelism = 4 // a real fan-out on a one-CPU machine too
	ctx, cancel := context.WithCancel(context.Background())
	var engDone sync.WaitGroup
	engDone.Add(1)
	go func() {
		defer engDone.Done()
		e.Run(ctx)
	}()

	feeding := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for n := 0; ; n++ {
				select {
				case <-feeding:
					return
				default:
				}
				rep, err := e.Report(w.inputs)
				if err != nil || len(rep.PerCampaign) != len(w.inputs) {
					t.Errorf("Report under apply: %v, %+v", err, rep)
					return
				}
				// Within one report every fold saw the same cut.
				for _, ca := range rep.PerCampaign {
					if ca.Context.AuditImpressions != ca.Viewability.Impressions || ca.Fraud.Impressions != ca.Viewability.Impressions {
						t.Errorf("campaign %s: folds of one report disagree on the impression count: %+v", ca.ID, ca)
						return
					}
				}
				if _, ok, err := e.Audit(testCampaigns[n%len(testCampaigns)]); !ok || err != nil {
					t.Errorf("Audit under apply: ok=%v err=%v", ok, err)
					return
				}
				if got := e.Summaries(); len(got) != len(testCampaigns) {
					t.Errorf("Summaries under apply: %d campaigns", len(got))
					return
				}
			}
		}()
	}
	feed := rand.New(rand.NewSource(14))
	ids := make([]int64, 0, 400)
	for i := 0; i < 400; i++ {
		campaign := testCampaigns[i%len(testCampaigns)]
		id, err := w.st.Insert(w.impression(feed, campaign))
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		ids = append(ids, id)
		if i%3 == 0 {
			if err := w.st.Merge(ids[feed.Intn(len(ids))], store.Continuation{
				Exposure: time.Duration(feed.Int63n(int64(time.Second))), Clicks: feed.Intn(2),
			}); err != nil {
				t.Fatalf("Merge: %v", err)
			}
		}
		if i%7 == 0 {
			if _, err := w.st.InsertConversion(store.Conversion{
				CampaignID: campaign, UserKey: fmt.Sprintf("user-%d", feed.Intn(40)), Action: "purchase",
				Timestamp: time.Unix(1700000000, 0),
			}); err != nil {
				t.Fatalf("InsertConversion: %v", err)
			}
		}
	}
	close(feeding)
	readers.Wait()
	if !e.WaitCaughtUp(5 * time.Second) {
		t.Fatalf("engine did not catch up: applied %d, feed %d", e.Applied(), w.st.FeedSeq())
	}
	cancel()
	engDone.Wait()
	requireReportsEqual(t, w, e)
}

// TestLiveViews sanity-checks the query surface the collector serves:
// summaries are sorted and internally consistent, and the per-campaign
// live audit reuses the configured report/keywords.
func TestLiveViews(t *testing.T) {
	w := newTestWorld(t, 3)
	rng := rand.New(rand.NewSource(3))
	w.populate(t, rng, 250)
	w.buildInputs(rng)

	reports := map[string]*adnet.VendorReport{}
	keywords := map[string][]string{}
	for _, in := range w.inputs {
		reports[in.ID] = in.Report
		keywords[in.ID] = in.Keywords
	}
	e, err := New(Config{Store: w.st, Meta: w.meta, Reports: reports, Keywords: keywords})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	sums := e.Summaries()
	if len(sums) != len(testCampaigns) {
		t.Fatalf("Summaries returned %d campaigns, want %d", len(sums), len(testCampaigns))
	}
	if !sort.SliceIsSorted(sums, func(i, j int) bool { return sums[i].CampaignID < sums[j].CampaignID }) {
		t.Fatalf("Summaries not sorted by campaign ID")
	}
	totalImps := 0
	for _, s := range sums {
		if s.Impressions <= 0 || s.Users <= 0 || s.Publishers <= 0 {
			t.Fatalf("degenerate summary: %+v", s)
		}
		if s.Seq != e.Applied() {
			t.Fatalf("summary seq %d != applied %d", s.Seq, e.Applied())
		}
		totalImps += s.Impressions
	}
	if totalImps != w.st.Len() {
		t.Fatalf("summaries count %d impressions, store has %d", totalImps, w.st.Len())
	}

	one, ok := e.LiveSummary(testCampaigns[0])
	if !ok || one.CampaignID != testCampaigns[0] {
		t.Fatalf("LiveSummary(%q) = %+v, %v", testCampaigns[0], one, ok)
	}
	if _, ok := e.LiveSummary("nope"); ok {
		t.Fatalf("LiveSummary of unknown campaign reported ok")
	}

	la, ok, err := e.Audit(testCampaigns[0])
	if err != nil || !ok {
		t.Fatalf("Audit: ok=%v err=%v", ok, err)
	}
	// Must equal the batch single-campaign audit against the same input.
	a := w.auditor(t)
	wantBS := a.BrandSafety(testCampaigns[0], reports[testCampaigns[0]])
	if !reflect.DeepEqual(la.Audit.BrandSafety, wantBS) {
		t.Fatalf("live audit brand safety mismatch:\n got %+v\nwant %+v", la.Audit.BrandSafety, wantBS)
	}
	if la.Summary.CampaignID != testCampaigns[0] {
		t.Fatalf("live audit summary for wrong campaign: %+v", la.Summary)
	}
	if _, ok, _ := e.Audit("nope"); ok {
		t.Fatalf("Audit of unknown campaign reported ok")
	}
}

// TestEngineHeapPerRecord gates what a live engine keeps per stored
// record: the campaign states' columns, nothing beside them. Priming an
// engine over 100,000 records of the three test campaigns holds 46.9
// heap bytes per record; a map from record ID to slot held 81.8.
func TestEngineHeapPerRecord(t *testing.T) {
	const n, ceiling = 100_000, 56.0
	w := newTestWorld(t, 1)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		if _, err := w.st.Insert(w.impression(rng, testCampaigns[i%len(testCampaigns)])); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e, err := New(Config{Store: w.st, Meta: w.meta})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(e)
	if perRec := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n; perRec > ceiling {
		t.Errorf("a primed engine holds %.1f heap bytes per record, ceiling %.0f", perRec, ceiling)
	} else {
		t.Logf("a primed engine holds %.1f heap bytes per record", perRec)
	}
}

// BenchmarkStreamApply measures deltas/sec through the incremental
// aggregators: ns/op is the cost of applying one already-published feed
// event (inserts with a 25% merge mix), excluding store insert time.
func BenchmarkStreamApply(b *testing.B) {
	w := newTestWorld(b, 42)
	rng := rand.New(rand.NewSource(42))
	const batch = 4096
	e, err := New(Config{Store: w.st, Meta: w.meta, Buffer: batch + 16})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	var ids []int64
	b.ReportAllocs()
	b.ResetTimer()
	applied := 0
	for applied < b.N {
		n := batch
		if rem := b.N - applied; rem < n {
			n = rem
		}
		b.StopTimer()
		for i := 0; i < n; i++ {
			if i%4 == 3 && len(ids) > 0 {
				if err := w.st.Merge(ids[rng.Intn(len(ids))], store.Continuation{
					Exposure: time.Duration(rng.Int63n(int64(time.Second))),
				}); err != nil {
					b.Fatalf("Merge: %v", err)
				}
				continue
			}
			id, err := w.st.Insert(w.impression(rng, testCampaigns[i%len(testCampaigns)]))
			if err != nil {
				b.Fatalf("Insert: %v", err)
			}
			ids = append(ids, id)
		}
		b.StartTimer()
		got, resynced := e.Drain()
		if resynced {
			b.Fatalf("benchmark engine resynced; raise the buffer")
		}
		if got != n {
			b.Fatalf("Drain applied %d, want %d", got, n)
		}
		applied += n
	}
}

// BenchmarkExportRoundTrip measures the wire between a shard and the
// router as it is served: one engine's export encoded (Engine.Export),
// written out (AppendBinary) and decoded again (UnmarshalBinary). The
// world has 8,000 users over 20 user agents in 20,000 impressions, and
// allocs/op is gated (cmd/benchgate's table): the codec allocates per
// table, column and thousand map entries, never per key or slot.
func BenchmarkExportRoundTrip(b *testing.B) {
	w := newTestWorld(b, 42)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		im := w.impression(rng, testCampaigns[i%len(testCampaigns)])
		im.IPPseudonym = fmt.Sprintf("ip-%d", rng.Intn(8000))
		im.UserKey = fmt.Sprintf("%s|Mozilla/5.0 (test agent %d)", im.IPPseudonym, rng.Intn(20))
		if _, err := w.st.Insert(im); err != nil {
			b.Fatalf("Insert: %v", err)
		}
	}
	e, err := New(Config{Store: w.st, Meta: w.meta})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bin, err := e.Export().AppendBinary(nil)
		if err != nil {
			b.Fatalf("AppendBinary: %v", err)
		}
		b.SetBytes(int64(len(bin)))
		if err := new(Export).UnmarshalBinary(bin); err != nil {
			b.Fatalf("UnmarshalBinary: %v", err)
		}
	}
}

// TestResultsDoNotAliasLiveState: what Report and Audit return is the
// caller's. An independent copy of the engine's state at the time of
// the report (its export through JSON, served statically) gives the
// reference; 1,000 further events — inserts, exposure merges on records
// the report covered, conversions — must leave the report equal to it.
func TestResultsDoNotAliasLiveState(t *testing.T) {
	w := newTestWorld(t, 5)
	rng := rand.New(rand.NewSource(5))
	ids := w.populate(t, rng, 300)
	w.buildInputs(rng)
	e, err := New(Config{Store: w.st, Meta: w.meta})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got, err := e.Report(w.inputs)
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	gotLive, _, err := e.Audit(testCampaigns[0])
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	b, err := json.Marshal(e.Export())
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var exp Export
	if err := json.Unmarshal(b, &exp); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	frozen, err := NewStatic(StaticConfig{Meta: w.meta}, &exp)
	if err != nil {
		t.Fatalf("NewStatic: %v", err)
	}

	for applied := 0; applied < 1000; {
		for _, id := range ids[:50] {
			if err := w.st.Merge(id, store.Continuation{Exposure: time.Second, VisibilityMeasured: true, MaxVisibleFraction: 0.9, Clicks: 1}); err != nil {
				t.Fatalf("Merge: %v", err)
			}
		}
		w.populate(t, rng, 100)
		n, resynced := e.Drain()
		if resynced {
			t.Fatalf("engine resynced; the events were meant to be applied to the state the report came from")
		}
		applied += n
	}

	want, err := frozen.Report(w.inputs)
	if err != nil {
		t.Fatalf("frozen Report: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("a report changed after it was returned")
	}
	wantLive, _, _ := frozen.Audit(testCampaigns[0])
	if !reflect.DeepEqual(gotLive.Audit, wantLive.Audit) {
		t.Fatalf("a live audit changed after it was returned")
	}
	if now, _ := e.Report(w.inputs); reflect.DeepEqual(now, want) {
		t.Fatalf("the 1,000 events changed nothing; the test proves nothing")
	}
}

// spellContainer writes an export container by hand, header and all,
// from id and packed-state pairs, so a test can get any part wrong.
func spellContainer(version uint64, count int, pairs ...string) []byte {
	b := binary.AppendUvarint([]byte(ExportMagic), version)
	b = binary.AppendUvarint(binary.AppendUvarint(b, 7), uint64(count))
	for i := 0; i+1 < len(pairs); i += 2 {
		b = append(binary.AppendUvarint(b, uint64(len(pairs[i]))), pairs[i]...)
		b = append(binary.LittleEndian.AppendUint64(b, uint64(len(pairs[i+1]))), pairs[i+1]...)
	}
	return b
}

// TestExportValidation: an export is checked where it is decoded, and a
// container that fails anywhere is rejected whole, for the reason named.
func TestExportValidation(t *testing.T) {
	w := newTestWorld(t, 9)
	w.populate(t, rand.New(rand.NewSource(9)), 30)
	e, err := New(Config{Store: w.st, Meta: w.meta})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	live, err := e.Export().States()
	if err != nil {
		t.Fatalf("States: %v", err)
	}
	packed, err := live[testCampaigns[0]].AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	state := string(packed)

	// The test's spelling is the encoder's, and it decodes.
	one := NewExport(7, map[string]*audit.State{"c": live[testCampaigns[0]]})
	good, err := one.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(good, spellContainer(ExportVersion, 1, "c", state)) {
		t.Fatalf("the container is not laid out as the test spells it\n got %x", good)
	}
	var x Export
	if err := x.UnmarshalBinary(good); err != nil {
		t.Fatalf("well-formed container rejected: %v", err)
	}
	if got, _ := x.States(); x.Seq() != 7 || len(got) != 1 || got["c"].Len() != live[testCampaigns[0]].Len() {
		t.Fatalf("decoded to seq %d and %d campaigns", x.Seq(), len(got))
	}

	v2, err := os.ReadFile("testdata/export_v2.json")
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		doc  []byte
		want string
	}{
		// A shard of another format is told so, not that a state fails.
		"wrong magic":       {append([]byte("ADEY"), good[len(ExportMagic):]...), "no container magic"},
		"format 2 document": {v2, "export format version 2 (JSON), this build reads 4"},
		"format 3 document": {[]byte(`{"version":3,"seq":3,"campaigns":{"c":"AgI="}}`), "export format version 3 (JSON), this build reads 4"},
		"foreign version":   {spellContainer(5, 1, "c", state), "export format version 5, this build reads 4"},
		"a trailing byte":   {append(slices.Clip(good), 0), "1 bytes follow the last campaign"},
		"campaign twice":    {spellContainer(ExportVersion, 2, "c", state, "c", state), `campaign "c" twice`},
		"count past bytes":  {spellContainer(ExportVersion, 1000, "c", state), "claims 1000 elements"},
		// An id of length 0 spelled in two bytes: every length has one encoding.
		"overlong id length": {slices.Concat(spellContainer(ExportVersion, 1), []byte{0x80, 0x00},
			binary.LittleEndian.AppendUint64(nil, uint64(len(state))), []byte(state)), "non-canonical"},
		"state cut short": {spellContainer(ExportVersion, 1, "camp-x", state[:len(state)-1]), `campaign "camp-x": audit: state encoding`},
		// The document that used to reach behaviorFold.publisher and
		// panic there (version-less, from the first format).
		"format 1 document": {[]byte(`{"campaigns":{"c":{"pub_slots":{"p":[9]}}}}`), "(JSON)"},
	} {
		if err := x.UnmarshalBinary(c.doc); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error about %q", name, err, c.want)
		}
	}
	for cut := range good {
		if err := x.UnmarshalBinary(good[:cut]); err == nil {
			t.Errorf("accepted the first %d of %d bytes", cut, len(good))
		}
	}
	if got, _ := x.States(); x.Seq() != 7 || len(got) != 1 {
		t.Fatalf("a rejected container changed the export it was decoded into")
	}

	// Handed over rather than decoded: the same checks, the same errors.
	cfg := StaticConfig{Meta: audit.UniverseMetadata{}}
	if _, err := NewStatic(cfg, NewExport(0, map[string]*audit.State{"c": nil})); err == nil || !strings.Contains(err.Error(), `no state for campaign "c"`) {
		t.Errorf("NewStatic over a nil state: %v", err)
	}
	empty, err := new(Export).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var zero Export
	if err := zero.UnmarshalBinary(empty); err != nil {
		t.Fatalf("empty export rejected: %v", err)
	}
	if _, err := NewStatic(cfg, &zero); err != nil {
		t.Fatalf("NewStatic on an empty export: %v", err)
	}
}

// TestExportConcurrentReaders: an export from Engine.Export decodes its
// states once, on whichever reader asks first, while others read its
// container; every reader sees the same states and the same bytes.
func TestExportConcurrentReaders(t *testing.T) {
	w := newTestWorld(t, 4)
	w.populate(t, rand.New(rand.NewSource(4)), 200)
	e, err := New(Config{Store: w.st, Meta: w.meta})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	exp := e.Export()
	want, err := exp.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	states := make([]map[string]*audit.State, 8)
	var wg sync.WaitGroup
	for i := range states {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if states[i], err = exp.States(); err != nil {
				t.Error(err)
			}
			if text, err := exp.MarshalText(); err != nil || len(text) == 0 {
				t.Errorf("MarshalText: %v", err)
			}
			if bin, _ := exp.AppendBinary(nil); !bytes.Equal(bin, want) {
				t.Error("the container changed under a concurrent decode")
			}
		}(i)
	}
	wg.Wait()
	for _, s := range states[1:] {
		if !reflect.DeepEqual(s, states[0]) || len(s) != len(testCampaigns) {
			t.Fatalf("readers saw different states")
		}
	}
}

// TestExportCarriesEncodeError: a state the format cannot carry (more
// than 256 MiB of user keys) fails the export, and every reader of it —
// the container, its text form, its states, a static engine — says why.
func TestExportCarriesEncodeError(t *testing.T) {
	w := newTestWorld(t, 3)
	w.populate(t, rand.New(rand.NewSource(3)), 20)
	long := strings.Repeat("A", 4<<20+64) // 65 keys of 4 MiB and more, all cut from one string
	for i := 0; i <= 64; i++ {
		if _, err := w.st.InsertConversion(store.Conversion{CampaignID: testCampaigns[1], UserKey: long[i:], Action: "purchase", Timestamp: time.Unix(1700000000, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	e, err := New(Config{Store: w.st, Meta: w.meta})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	exp := e.Export()
	_, binErr := exp.AppendBinary(nil)
	_, textErr := exp.MarshalText()
	_, statesErr := exp.States()
	_, staticErr := NewStatic(StaticConfig{Meta: w.meta}, exp)
	for reader, err := range map[string]error{"AppendBinary": binErr, "MarshalText": textErr, "States": statesErr, "NewStatic": staticErr} {
		if err == nil || !strings.Contains(err.Error(), `campaign "camp-beta": audit: state encoding`) || !strings.Contains(err.Error(), "bytes of user keys") {
			t.Errorf("%s: %v", reader, err)
		}
	}
}
