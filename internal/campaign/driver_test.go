package campaign

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"adaudit/internal/adnet"
	"adaudit/internal/beacon"
	"adaudit/internal/collector"
	"adaudit/internal/daemon"
	"adaudit/internal/ipmeta"
	"adaudit/internal/memnet"
	"adaudit/internal/publisher"
	"adaudit/internal/store"
	"adaudit/internal/wsproto"
)

type fixture struct {
	network *adnet.Network
	store   *store.Store
	coll    *collector.Collector
	driver  *Driver
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	pubs, err := publisher.NewUniverse(publisher.Config{Seed: 21, NumPublishers: 3000})
	if err != nil {
		t.Fatal(err)
	}
	ips, err := ipmeta.NewUniverse(ipmeta.UniverseConfig{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	net, err := adnet.New(adnet.Config{Seed: 21, Publishers: pubs, IPs: ips})
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	coll, err := collector.New(collector.Config{
		Store:      st,
		IPDB:       ips.DB,
		Classifier: &ipmeta.Classifier{DB: ips.DB, DenyList: ips.DenyList, ManualVerify: ips.ManualVerify},
		Anonymizer: ipmeta.NewAnonymizer([]byte("fixture")),
	})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		network: net,
		store:   st,
		coll:    coll,
		driver:  &Driver{Network: net, Collector: coll, Loss: DefaultLossModel(), Seed: 21},
	}
}

func smallCampaign(id string, imps int) adnet.Campaign {
	return adnet.Campaign{
		ID: id, CreativeID: "cr", Keywords: []string{"football"},
		CPM: 0.10, Geo: "ES", Impressions: imps,
		Start: time.Date(2016, 4, 2, 0, 0, 0, 0, time.UTC),
		End:   time.Date(2016, 4, 3, 0, 0, 0, 0, time.UTC),
	}
}

func TestRunAccountsForEveryImpression(t *testing.T) {
	f := newFixture(t)
	out, err := f.driver.Run(smallCampaign("acct", 3000))
	if err != nil {
		t.Fatal(err)
	}
	total := out.Logged + out.LostBlocked + out.LostConnection
	if total != 3000 {
		t.Fatalf("accounted %d of 3000 impressions", total)
	}
	if f.store.Len() != out.Logged {
		t.Fatalf("store has %d, outcome says %d", f.store.Len(), out.Logged)
	}
	if out.Logged == 0 {
		t.Fatal("nothing logged")
	}
}

func TestLossModelLosesSomething(t *testing.T) {
	f := newFixture(t)
	out, err := f.driver.Run(smallCampaign("loss", 4000))
	if err != nil {
		t.Fatal(err)
	}
	if out.LostBlocked == 0 {
		t.Fatal("no script-blocked losses: fleet model broken")
	}
	if out.LostConnection == 0 {
		t.Fatal("no connection losses: loss model broken")
	}
	lostFrac := float64(out.LostBlocked+out.LostConnection) / 4000
	if lostFrac < 0.05 || lostFrac > 0.30 {
		t.Fatalf("loss fraction = %v, want ~0.10-0.20", lostFrac)
	}
}

func TestZeroLossDriver(t *testing.T) {
	f := newFixture(t)
	f.driver.Loss = LossModel{}
	out, err := f.driver.Run(smallCampaign("noloss", 1000))
	if err != nil {
		t.Fatal(err)
	}
	if out.LostConnection != 0 {
		t.Fatalf("connection losses with zero loss model: %d", out.LostConnection)
	}
	// Blocked devices still lose impressions: that is a device property.
	if out.Logged+out.LostBlocked != 1000 {
		t.Fatalf("accounting broken: %+v", out)
	}
}

// campaignRows copies one campaign's stored records out in insertion
// order.
func campaignRows(st *store.Store, campaignID string) []store.Impression {
	var out []store.Impression
	st.VisitCampaign(campaignID, func(im *store.Impression) bool {
		out = append(out, *im)
		return true
	})
	return out
}

func TestStoredRecordsMatchDeliveries(t *testing.T) {
	f := newFixture(t)
	f.driver.Loss = LossModel{}
	out, err := f.driver.Run(smallCampaign("match", 800))
	if err != nil {
		t.Fatal(err)
	}
	recs := campaignRows(f.store, "match")
	if len(recs) != out.Logged {
		t.Fatalf("stored %d, logged %d", len(recs), out.Logged)
	}
	// Every stored publisher must exist in the universe.
	for _, im := range recs {
		if _, ok := f.network.Publishers().ByDomain(im.Publisher); !ok {
			t.Fatalf("stored publisher %q not in universe", im.Publisher)
		}
		if im.Exposure <= 0 {
			t.Fatalf("stored exposure %v", im.Exposure)
		}
		if im.Timestamp.Before(time.Date(2016, 4, 2, 0, 0, 0, 0, time.UTC)) {
			t.Fatalf("timestamp %v before flight", im.Timestamp)
		}
	}
}

func TestRunAllMultipleCampaigns(t *testing.T) {
	f := newFixture(t)
	cs := []adnet.Campaign{smallCampaign("m1", 500), smallCampaign("m2", 700)}
	out, err := f.driver.RunAll(cs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Campaigns) != 2 {
		t.Fatalf("outcomes = %d", len(out.Campaigns))
	}
	reports := out.Reports()
	if reports["m1"] == nil || reports["m2"] == nil {
		t.Fatal("missing vendor reports")
	}
	if out.TotalLogged() != f.store.Len() {
		t.Fatalf("TotalLogged %d != store %d", out.TotalLogged(), f.store.Len())
	}
	if got := len(f.store.Campaigns()); got != 2 {
		t.Fatalf("store campaigns = %d", got)
	}
}

func TestPayloadForBuildsValidPayload(t *testing.T) {
	f := newFixture(t)
	res, err := f.network.Run(smallCampaign("pl", 50))
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Deliveries {
		p := PayloadFor(&res.Campaign, &res.Deliveries[i])
		if err := p.Validate(); err != nil {
			t.Fatalf("delivery %d: %v", i, err)
		}
		pub, err := p.Publisher()
		if err != nil {
			t.Fatal(err)
		}
		if pub != res.Deliveries[i].Publisher.Domain {
			t.Fatalf("publisher %q != delivery %q", pub, res.Deliveries[i].Publisher.Domain)
		}
		want := res.Deliveries[i].MouseMoves + res.Deliveries[i].Clicks
		if res.Deliveries[i].VisibilityMeasured {
			want++
		}
		if len(p.Events) != want {
			t.Fatalf("delivery %d: %d events, want %d", i, len(p.Events), want)
		}
	}
}

func TestDriverRequiresComponents(t *testing.T) {
	d := &Driver{}
	if _, err := d.Run(smallCampaign("x", 10)); err == nil {
		t.Fatal("empty driver ran")
	}
}

// TestWireReplayMatchesDirectPath: the payloads PayloadFor builds reach
// the store over a real beacon session as they do through the direct
// path — enriched, with publishers the universe knows.
func TestWireReplayMatchesDirectPath(t *testing.T) {
	f := newFixture(t)
	res, err := f.network.Run(smallCampaign("wire", 200))
	if err != nil {
		t.Fatal(err)
	}
	var nw memnet.Network // unbuffered: a session is tracked once its payload is read
	ln, err := nw.Listen("collector:80")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := collector.NewServer(f.coll, "", daemon.WithListener(ln))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx) }()

	const limit = 25
	client := &beacon.Client{CollectorURL: srv.BeaconURL(), Dialer: wsproto.Dialer{NetDial: nw.Dial}}
	sent := 0
	for i := 0; i < len(res.Deliveries) && sent < limit; i++ {
		if res.Deliveries[i].Device.BeaconBlocked {
			continue
		}
		p := PayloadFor(&res.Campaign, &res.Deliveries[i])
		events := p.Events
		p.Events = nil
		sess, err := client.Open(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events {
			if err := sess.SendEvent(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	if sent != limit {
		t.Fatalf("fixture too small: only %d unblocked deliveries", sent)
	}
	// Shutdown drains: every session commits before Serve returns.
	cancel()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if f.store.Len() != limit {
		t.Fatalf("store has %d of %d wire records", f.store.Len(), limit)
	}
	recs := campaignRows(f.store, "wire")
	for _, im := range recs {
		if _, ok := f.network.Publishers().ByDomain(im.Publisher); !ok {
			t.Fatalf("wire record publisher %q unknown", im.Publisher)
		}
		if im.IPPseudonym == "" || im.UserKey == "" {
			t.Fatal("wire record not enriched")
		}
	}
}

func TestConversionsFlowThroughDriver(t *testing.T) {
	f := newFixture(t)
	out, err := f.driver.Run(smallCampaign("convs", 8000))
	if err != nil {
		t.Fatal(err)
	}
	if out.Conversions == 0 {
		t.Fatal("no conversions logged")
	}
	if f.store.NumConversions() != out.Conversions {
		t.Fatalf("store has %d conversions, outcome says %d",
			f.store.NumConversions(), out.Conversions)
	}
	// Conversions join to exposures: every conversion's user key must
	// have impressions in the same campaign.
	exposed := map[string]bool{}
	for _, im := range campaignRows(f.store, "convs") {
		exposed[im.UserKey] = true
	}
	for _, conv := range f.store.Conversions("convs") {
		if !exposed[conv.UserKey] {
			t.Fatalf("conversion user %q has no impressions", conv.UserKey)
		}
	}
	// Plausible conversion ratio: well under 1%.
	ratio := float64(out.Conversions) / 8000
	if ratio > 0.01 {
		t.Fatalf("conversion ratio %v implausibly high", ratio)
	}
}

// runAllParallel runs every campaign on its own goroutine, as the
// paper's overlapping flights did (Table 1's date ranges overlap). The
// store and the collector's ingest funnel are concurrency-safe, and
// each campaign draws from its own RNG stream, so the dataset holds the
// records of a sequential run, merely interleaved.
func runAllParallel(d *Driver, cs []adnet.Campaign) (*RunOutcome, error) {
	outs := make([]*CampaignOutcome, len(cs))
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for i := range cs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = d.Run(cs[i])
		}(i)
	}
	wg.Wait()
	out := &RunOutcome{}
	for i := range outs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out.Campaigns = append(out.Campaigns, *outs[i])
	}
	return out, nil
}

func TestRunAllParallelMatchesSequential(t *testing.T) {
	cs := []adnet.Campaign{
		smallCampaign("par-1", 900),
		smallCampaign("par-2", 700),
		smallCampaign("par-3", 500),
	}
	seq := newFixture(t)
	seqOut, err := seq.driver.RunAll(cs)
	if err != nil {
		t.Fatal(err)
	}
	par := newFixture(t)
	parOut, err := runAllParallel(par.driver, cs)
	if err != nil {
		t.Fatal(err)
	}
	if seqOut.TotalLogged() != parOut.TotalLogged() {
		t.Fatalf("logged: seq %d vs par %d", seqOut.TotalLogged(), parOut.TotalLogged())
	}
	// Same records per campaign, independent of interleaving: compare
	// the per-campaign publisher multisets via counts.
	for _, c := range cs {
		a := campaignRows(seq.store, c.ID)
		b := campaignRows(par.store, c.ID)
		if len(a) != len(b) {
			t.Fatalf("%s: seq %d vs par %d records", c.ID, len(a), len(b))
		}
		ca := map[string]int{}
		cb := map[string]int{}
		for i := range a {
			ca[a[i].Publisher+"|"+a[i].UserKey]++
			cb[b[i].Publisher+"|"+b[i].UserKey]++
		}
		for k, v := range ca {
			if cb[k] != v {
				t.Fatalf("%s: record multiset differs at %q (%d vs %d)", c.ID, k, v, cb[k])
			}
		}
	}
}

// scaledPaperRoster is the paper's 8-campaign Table 1 roster with
// impression volumes scaled down ~40x so the full roster runs in test
// time while keeping every campaign's keywords, geo, CPM and flight.
func scaledPaperRoster() []adnet.Campaign {
	cs := adnet.PaperCampaigns()
	for i := range cs {
		cs[i].Impressions /= 40
		if cs[i].Impressions < 400 {
			cs[i].Impressions = 400
		}
	}
	return cs
}

// TestRunAllParallelMatchesSequentialPaperRoster runs the full Table 1
// roster both ways on separate fixtures and requires deep equality: the
// outcome structs (deliveries, vendor reports, loss accounting) and
// every stored record per campaign, in order. Valid because both the
// network and the loss model fork a per-campaign RNG stream — execution
// order must be invisible.
func TestRunAllParallelMatchesSequentialPaperRoster(t *testing.T) {
	cs := scaledPaperRoster()
	if len(cs) != 8 {
		t.Fatalf("paper roster has %d campaigns, want 8", len(cs))
	}
	seq := newFixture(t)
	seqOut, err := seq.driver.RunAll(cs)
	if err != nil {
		t.Fatal(err)
	}
	par := newFixture(t)
	parOut, err := runAllParallel(par.driver, cs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqOut, parOut) {
		for i := range seqOut.Campaigns {
			if !reflect.DeepEqual(seqOut.Campaigns[i], parOut.Campaigns[i]) {
				t.Errorf("campaign %s outcome differs: seq %+v vs par %+v",
					cs[i].ID, seqOut.Campaigns[i], parOut.Campaigns[i])
			}
		}
		t.Fatal("parallel RunOutcome differs from sequential")
	}
	for _, c := range cs {
		a := campaignRows(seq.store, c.ID)
		b := campaignRows(par.store, c.ID)
		if len(a) != len(b) {
			t.Fatalf("%s: seq stored %d records, par %d", c.ID, len(a), len(b))
		}
		for i := range a {
			// Global insertion IDs depend on cross-campaign
			// interleaving; everything else must match record for
			// record.
			a[i].ID, b[i].ID = 0, 0
			if !reflect.DeepEqual(a[i], b[i]) {
				t.Fatalf("%s record %d differs:\nseq %+v\npar %+v", c.ID, i, a[i], b[i])
			}
		}
	}
}
