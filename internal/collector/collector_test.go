package collector

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/ipmeta"
	"adaudit/internal/store"
)

func testCollector(t *testing.T) (*Collector, *store.Store) {
	t.Helper()
	st := store.New()
	uni, err := ipmeta.NewUniverse(ipmeta.UniverseConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		Store:      st,
		IPDB:       uni.DB,
		Classifier: &ipmeta.Classifier{DB: uni.DB, DenyList: uni.DenyList, ManualVerify: uni.ManualVerify},
		Anonymizer: ipmeta.NewAnonymizer([]byte("test-secret")),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, st
}

func testObservation(t *testing.T, c *Collector) Observation {
	t.Helper()
	return Observation{
		Payload: beacon.Payload{
			CampaignID: "Research-010",
			CreativeID: "cr1",
			PageURL:    "http://www.ciencia123.es/articulo",
			UserAgent:  "Mozilla/5.0 Chrome/49.0",
			Events: []beacon.Event{
				{Kind: beacon.EventMouseMove, At: time.Second},
				{Kind: beacon.EventClick, At: 2 * time.Second},
				{Kind: beacon.EventMouseMove, At: 3 * time.Second},
			},
		},
		RemoteIP:    netip.MustParseAddr("10.0.0.7"),
		ConnectedAt: time.Date(2016, 3, 29, 10, 0, 0, 0, time.UTC),
		Exposure:    2500 * time.Millisecond,
	}
}

func TestNewRequiresStoreAndAnonymizer(t *testing.T) {
	if _, err := New(Config{Anonymizer: ipmeta.NewAnonymizer([]byte("k"))}); err == nil {
		t.Fatal("missing store accepted")
	}
	if _, err := New(Config{Store: store.New()}); err == nil {
		t.Fatal("missing anonymizer accepted")
	}
}

func TestIngestEnrichesRecord(t *testing.T) {
	c, st := testCollector(t)
	obs := testObservation(t, c)
	id, err := c.Ingest(obs)
	if err != nil {
		t.Fatal(err)
	}
	im, ok := st.Get(id)
	if !ok {
		t.Fatal("record not stored")
	}
	if im.Publisher != "ciencia123.es" {
		t.Fatalf("publisher = %q", im.Publisher)
	}
	if im.ISP == "" || im.Country == "" {
		t.Fatalf("IP metadata missing: isp=%q country=%q", im.ISP, im.Country)
	}
	if im.IPPseudonym == "" || im.IPPseudonym == obs.RemoteIP.String() {
		t.Fatalf("IP not pseudonymised: %q", im.IPPseudonym)
	}
	if im.UserKey != UserKey(im.IPPseudonym, obs.Payload.UserAgent) {
		t.Fatalf("user key = %q", im.UserKey)
	}
	if im.MouseMoves != 2 || im.Clicks != 1 {
		t.Fatalf("interactions = %d moves, %d clicks", im.MouseMoves, im.Clicks)
	}
	if im.Exposure != 2500*time.Millisecond {
		t.Fatalf("exposure = %v", im.Exposure)
	}
	if im.DataCenter != "not-data-center" {
		t.Fatalf("residential IP classified as %q", im.DataCenter)
	}
	if c.Metrics.Ingested.Load() != 1 {
		t.Fatalf("ingested metric = %d", c.Metrics.Ingested.Load())
	}
}

func TestIngestClassifiesDataCenterIP(t *testing.T) {
	st := store.New()
	uni, err := ipmeta.NewUniverse(ipmeta.UniverseConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		Store:      st,
		IPDB:       uni.DB,
		Classifier: &ipmeta.Classifier{DB: uni.DB, DenyList: uni.DenyList, ManualVerify: uni.ManualVerify},
		Anonymizer: ipmeta.NewAnonymizer([]byte("k")),
	})
	if err != nil {
		t.Fatal(err)
	}
	dcAddr, err := uni.RandomHostingAddr()
	if err != nil {
		t.Fatal(err)
	}
	obs := testObservation(t, c)
	obs.RemoteIP = dcAddr
	id, err := c.Ingest(obs)
	if err != nil {
		t.Fatal(err)
	}
	im, _ := st.Get(id)
	switch im.DataCenter {
	case "provider-db", "deny-list", "manual":
		// Any cascade stage is fine; which one fires depends on whether
		// the synthetic registry mislabelled this provider.
	default:
		t.Fatalf("data-center verdict = %q", im.DataCenter)
	}
}

func TestIngestClampsExposure(t *testing.T) {
	c, st := testCollector(t)
	obs := testObservation(t, c)
	obs.Exposure = 99 * time.Hour
	id, err := c.Ingest(obs)
	if err != nil {
		t.Fatal(err)
	}
	im, _ := st.Get(id)
	if im.Exposure != 30*time.Minute {
		t.Fatalf("exposure = %v, want clamped to 30m", im.Exposure)
	}
	obs.Exposure = -time.Second
	id, err = c.Ingest(obs)
	if err != nil {
		t.Fatal(err)
	}
	im, _ = st.Get(id)
	if im.Exposure != 0 {
		t.Fatalf("negative exposure stored as %v", im.Exposure)
	}
}

func TestIngestRejectsBadPageURL(t *testing.T) {
	c, _ := testCollector(t)
	obs := testObservation(t, c)
	obs.Payload.PageURL = "garbage"
	if _, err := c.Ingest(obs); err == nil {
		t.Fatal("bad page URL accepted")
	}
	if c.Metrics.Rejected.Load() != 1 {
		t.Fatalf("rejected metric = %d", c.Metrics.Rejected.Load())
	}
}

func TestIngestUnknownIPStillStored(t *testing.T) {
	c, st := testCollector(t)
	obs := testObservation(t, c)
	obs.RemoteIP = netip.MustParseAddr("203.0.113.9") // outside synthetic registry
	id, err := c.Ingest(obs)
	if err != nil {
		t.Fatal(err)
	}
	im, _ := st.Get(id)
	if im.ISP != "" || im.Country != "" {
		t.Fatalf("unknown IP got metadata: %+v", im)
	}
	if im.DataCenter != "not-data-center" {
		t.Fatalf("unknown IP verdict = %q", im.DataCenter)
	}
}

func TestUserKeySeparatesNATUsers(t *testing.T) {
	// Same IP, different browsers: distinct users (paper §4.2).
	a := UserKey("pseudo1", "Chrome/49")
	b := UserKey("pseudo1", "Firefox/45")
	if a == b {
		t.Fatal("NAT users with different UAs share a key")
	}
	if UserKey("pseudo1", "Chrome/49") != a {
		t.Fatal("user key not deterministic")
	}
}

func TestEndToEndWebSocketSession(t *testing.T) {
	c, st := testCollector(t)
	srv, err := NewServer(c, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ctx)
	}()

	client := &beacon.Client{CollectorURL: srv.BeaconURL()}
	p := beacon.Payload{
		CampaignID: "Football-010",
		CreativeID: "cr2",
		PageURL:    "http://futbolhoy999.es/cronica",
		UserAgent:  "Mozilla/5.0 Chrome/49.0",
	}
	sess, err := client.Open(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.SendEvent(beacon.Event{Kind: beacon.EventClick, At: 40 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond) // hold the connection: this is the exposure
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	// The collector commits on disconnect; poll briefly.
	deadline := time.Now().Add(3 * time.Second)
	for st.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if st.Len() != 1 {
		t.Fatalf("store has %d records", st.Len())
	}
	im, _ := st.Get(1)
	if im.CampaignID != "Football-010" || im.Publisher != "futbolhoy999.es" {
		t.Fatalf("record = %+v", im)
	}
	if im.Clicks != 1 {
		t.Fatalf("clicks = %d", im.Clicks)
	}
	if im.Exposure < 50*time.Millisecond {
		t.Fatalf("exposure = %v, want >= hold duration", im.Exposure)
	}
	if im.IPPseudonym == "" {
		t.Fatal("missing pseudonym")
	}
	if got := c.Metrics.Connections.Load(); got != 1 {
		t.Fatalf("connections metric = %d", got)
	}

	cancel()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("server did not shut down")
	}
}

func TestServerRejectsGarbagePayload(t *testing.T) {
	c, st := testCollector(t)
	srv, err := NewServer(c, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.Serve(ctx)

	// Dial raw WebSocket and send a non-payload message.
	d := &beaconDialer{url: srv.BeaconURL()}
	if err := d.sendRaw(ctx, "this is not a payload"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for c.Metrics.Rejected.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if c.Metrics.Rejected.Load() == 0 {
		t.Fatal("garbage payload not rejected")
	}
	if st.Len() != 0 {
		t.Fatal("garbage payload stored")
	}
}

func TestServerHealthAndMetrics(t *testing.T) {
	c, _ := testCollector(t)
	srv, err := NewServer(c, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.Serve(ctx)

	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := httpGet(ctx, "http://"+srv.Addr().String()+path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp != 200 {
			t.Fatalf("GET %s status = %d", path, resp)
		}
	}
}
