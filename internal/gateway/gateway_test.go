package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/collector"
	"adaudit/internal/ipmeta"
	"adaudit/internal/store"
)

const testTrunkToken = "trunk-secret"

// testCollector builds a collector suitable for fronting with a
// gateway: trunk endpoint guarded by testTrunkToken, fast keepalive.
func testCollector(t *testing.T, mut func(*collector.Config)) (*collector.Collector, *store.Store) {
	t.Helper()
	st := store.New()
	cfg := collector.Config{
		Store:             st,
		Anonymizer:        ipmeta.NewAnonymizer([]byte("gw-test")),
		TrunkToken:        testTrunkToken,
		KeepAliveInterval: 50 * time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := collector.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, st
}

// startCollectorServer serves c on addr ("127.0.0.1:0" for a free
// port); stop shuts it down gracefully and may be called once.
func startCollectorServer(t *testing.T, c *collector.Collector, addr string, opts ...collector.ServerOption) (*collector.Server, func()) {
	t.Helper()
	srv, err := collector.NewServer(c, addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ctx)
	}()
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("collector server did not stop")
		}
	}
	t.Cleanup(stop)
	return srv, stop
}

// fastConfig returns a gateway Config tuned for test time scales.
func fastConfig(trunkURL string) Config {
	return Config{
		CollectorURL:      trunkURL,
		TrunkToken:        testTrunkToken,
		GatewayID:         "gw-test",
		KeepAliveInterval: 50 * time.Millisecond,
		AckTimeout:        300 * time.Millisecond,
		ReplayInterval:    50 * time.Millisecond,
		BreakerThreshold:  3,
		BreakerCooldown:   50 * time.Millisecond,
		RetryAfterHint:    2 * time.Second,
	}
}

// startGateway builds and serves a gateway; the cleanup closes it.
func startGateway(t *testing.T, cfg Config, opts ...ServerOption) (*Gateway, *Server) {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(g, "127.0.0.1:0", append([]ServerOption{WithDrainGrace(time.Second)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("gateway server did not stop")
		}
	})
	return g, srv
}

func trunkURL(srv *collector.Server) string {
	return fmt.Sprintf("ws://%s/trunk", srv.Addr())
}

func waitFor(t *testing.T, timeout time.Duration, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// series reads one of the gateway's metrics by name from its registry.
func series(g *Gateway, name string) float64 {
	s, _ := g.Telemetry().Find(name, nil)
	return s.Value
}

func testPayload(i int) beacon.Payload {
	return beacon.Payload{
		CampaignID: "Gateway-001",
		CreativeID: fmt.Sprintf("cr-%d", i),
		PageURL:    fmt.Sprintf("http://pub%d.es/page", i%3),
		UserAgent:  "Mozilla/5.0 Chrome/49.0",
		Nonce:      beacon.NewNonce(),
	}
}

// TestGatewayEndToEnd pushes one beacon session through the full edge
// path — client → gateway → trunk → collector — and checks the
// impression lands with its events, exposure, and nonce intact, and
// that the gateway's spill buffer drains to empty on the ack.
func TestGatewayEndToEnd(t *testing.T) {
	c, st := testCollector(t, nil)
	csrv, _ := startCollectorServer(t, c, "127.0.0.1:0")
	g, gsrv := startGateway(t, fastConfig(trunkURL(csrv)))
	waitFor(t, 5*time.Second, "trunks to establish", func() bool { return g.Health().Status == "ok" })

	client := &beacon.Client{CollectorURL: gsrv.BeaconURL()}
	p := testPayload(0)
	ctx := context.Background()
	sess, err := client.Open(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.SendEvent(beacon.Event{Kind: beacon.EventClick, At: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	waitFor(t, 5*time.Second, "impression to reach the collector", func() bool { return st.Len() == 1 })
	im, _ := st.Get(1)
	if im.CampaignID != "Gateway-001" || im.Publisher != "pub0.es" {
		t.Fatalf("record = %+v", im)
	}
	if im.Clicks != 1 {
		t.Fatalf("clicks = %d, want 1", im.Clicks)
	}
	if im.Exposure < 40*time.Millisecond {
		t.Fatalf("exposure = %v, want >= hold duration", im.Exposure)
	}
	if im.Nonce != p.Nonce {
		t.Fatalf("nonce = %q, want %q", im.Nonce, p.Nonce)
	}
	waitFor(t, 5*time.Second, "spill buffer to drain", func() bool { return g.Health().SpillPending == 0 })
	if got := series(g, "adaudit_gateway_acks_total"); got != 1 {
		t.Fatalf("acks = %v, want 1", got)
	}
	if got := c.Metrics.Events.Load(); got != 1 {
		t.Fatalf("collector events metric = %d, want 1 (direct-path parity)", got)
	}
}

// TestGatewayRejectsWithoutTrunkToken: a gateway holding the wrong
// credential never establishes a trunk, trips its breaker, and reports
// unhealthy — misconfiguration is loud, not silent loss.
func TestGatewayRejectsWithoutTrunkToken(t *testing.T) {
	c, _ := testCollector(t, nil)
	csrv, _ := startCollectorServer(t, c, "127.0.0.1:0")
	cfg := fastConfig(trunkURL(csrv))
	cfg.TrunkToken = "wrong"
	g, _ := startGateway(t, cfg)

	waitFor(t, 5*time.Second, "breaker to open", func() bool { return series(g, "adaudit_gateway_breaker_opens_total") >= 1 })
	if h := g.Health(); h.Status != "unhealthy" || h.Pools[0].TrunksHealthy != 0 {
		t.Fatalf("health = %+v, want unhealthy with zero trunks", h)
	}
}

// TestGatewaySpillReplaysAcrossCollectorOutage is the zero-loss
// headline: a session commits while the collector is down, the client
// is acked from the spill buffer, and when the collector returns the
// commit replays through the nonce/stream-dedup path exactly once.
func TestGatewaySpillReplaysAcrossCollectorOutage(t *testing.T) {
	c, st := testCollector(t, nil)
	csrv, stopCollector := startCollectorServer(t, c, "127.0.0.1:0")
	collectorAddr := csrv.Addr().String()
	g, gsrv := startGateway(t, fastConfig(trunkURL(csrv)))
	waitFor(t, 5*time.Second, "trunks to establish", func() bool { return g.Health().Pools[0].TrunksHealthy > 0 })

	stopCollector()
	waitFor(t, 5*time.Second, "trunks to drop", func() bool { return g.Health().Pools[0].TrunksHealthy == 0 })

	// The client's whole session happens during the outage; Report
	// returning nil is the gateway's promise.
	client := &beacon.Client{CollectorURL: gsrv.BeaconURL()}
	p := testPayload(1)
	if err := client.Report(context.Background(), p, 40*time.Millisecond); err != nil {
		t.Fatalf("client not acked during collector outage: %v", err)
	}
	// The close handshake the client just saw races the commit's spill
	// insert by microseconds; wait for it rather than sampling.
	waitFor(t, 2*time.Second, "commit to spill", func() bool { return g.Health().SpillPending == 1 })
	if st.Len() != 0 {
		t.Fatal("impression reached a stopped collector?")
	}

	// Collector restarts on the same address with the surviving store
	// (its nonce cache reseeds from it in New).
	c2, err := collector.New(collector.Config{
		Store:             st,
		Anonymizer:        ipmeta.NewAnonymizer([]byte("gw-test")),
		TrunkToken:        testTrunkToken,
		KeepAliveInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	startCollectorServer(t, c2, collectorAddr)

	waitFor(t, 10*time.Second, "spilled commit to replay", func() bool { return st.Len() == 1 && g.Health().SpillPending == 0 })
	im, _ := st.Get(1)
	if im.Nonce != p.Nonce {
		t.Fatalf("replayed nonce = %q, want %q", im.Nonce, p.Nonce)
	}
	if got := series(g, "adaudit_gateway_acks_total"); got != 1 {
		t.Fatalf("acks = %v, want 1", got)
	}
}

// TestHealthzBody pins the gateway's /healthz JSON: the shared schema
// with tier "gateway", its ID, and one upstream check beside the spill
// check. The ladder itself is the edge core's (and tested there).
func TestHealthzBody(t *testing.T) {
	c, _ := testCollector(t, nil)
	csrv, _ := startCollectorServer(t, c, "127.0.0.1:0")
	g, gsrv := startGateway(t, fastConfig(trunkURL(csrv)))
	waitFor(t, 5*time.Second, "trunks to establish", func() bool { return g.Health().Status == "ok" })

	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", gsrv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d, want 200", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if up, ok := body["uptime_seconds"].(float64); !ok || up < 0 {
		t.Fatalf("healthz uptime_seconds = %v, want a non-negative number", body["uptime_seconds"])
	}
	delete(body, "uptime_seconds")
	want := map[string]any{
		"status": "ok", "tier": "gateway", "id": "gw-test", "sessions": 0.0,
		"checks": map[string]any{
			"upstream_0": map[string]any{"status": "ok", "value": 2.0, "limit": 2.0,
				"detail": "healthy trunks to " + trunkURL(csrv)},
			"spill_pending": map[string]any{"status": "ok", "value": 0.0, "limit": 0.0,
				"detail": "commits awaiting an upstream ack"},
		},
	}
	if !reflect.DeepEqual(body, want) {
		t.Fatalf("healthz body = %v, want %v", body, want)
	}
}
