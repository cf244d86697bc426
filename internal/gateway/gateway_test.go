package gateway

import (
	"context"
	"testing"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/collector"
	"adaudit/internal/collector/collectortest"
	"adaudit/internal/store"
	"adaudit/internal/tiertest"
)

// fastConfig returns a gateway Config tuned for test time scales.
func fastConfig(trunkURL string) Config {
	return Config{
		CollectorURL:      trunkURL,
		TrunkToken:        collectortest.TrunkToken,
		GatewayID:         "gw-test",
		KeepAliveInterval: 50 * time.Millisecond,
		AckTimeout:        300 * time.Millisecond,
		ReplayInterval:    50 * time.Millisecond,
		BreakerThreshold:  3,
		BreakerCooldown:   50 * time.Millisecond,
		RetryAfterHint:    2 * time.Second,
	}
}

// startGateway builds and serves a gateway until the test ends.
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
	tiertest.Serve(t, srv)
	return g, srv
}

// startCollector serves a collector over st on a free loopback port and
// returns it, its address and its stop.
func startCollector(t *testing.T, st *store.Store) (*collector.Collector, string, func() error) {
	ln := collectortest.TCP(t, "127.0.0.1:0")
	c, stop := collectortest.Serve(t, st, ln, nil)
	return c, ln.Addr().String(), stop
}

func trunkURL(addr string) string { return "ws://" + addr + "/trunk" }

// series reads one of the gateway's metrics by name from its registry.
func series(g *Gateway, name string) float64 {
	s, _ := g.Telemetry().Find(name, nil)
	return s.Value
}

// TestGatewayEndToEnd pushes one beacon session through the full edge
// path — client → gateway → trunk → collector — and checks the
// impression lands with its events, exposure, and nonce intact, and
// that the gateway's spill buffer drains to empty on the ack.
func TestGatewayEndToEnd(t *testing.T) {
	st := store.New()
	c, addr, _ := startCollector(t, st)
	g, gsrv := startGateway(t, fastConfig(trunkURL(addr)))
	tiertest.WaitFor(t, "trunks to establish", func() bool { return g.Health().Status == "ok" })

	client := &beacon.Client{CollectorURL: gsrv.BeaconURL()}
	p := tiertest.Payload(0)
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

	tiertest.WaitFor(t, "impression to reach the collector", func() bool { return st.Len() == 1 })
	im, _ := st.Get(1)
	if im.CampaignID != p.CampaignID || im.Publisher != "pub0.es" {
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
	tiertest.WaitFor(t, "spill buffer to drain", func() bool { return g.Health().SpillPending == 0 })
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
	_, addr, _ := startCollector(t, store.New())
	cfg := fastConfig(trunkURL(addr))
	cfg.TrunkToken = "wrong"
	g, _ := startGateway(t, cfg)

	tiertest.WaitFor(t, "breaker to open", func() bool { return series(g, "adaudit_gateway_breaker_opens_total") >= 1 })
	if h := g.Health(); h.Status != "unhealthy" || h.Pools[0].TrunksHealthy != 0 {
		t.Fatalf("health = %+v, want unhealthy with zero trunks", h)
	}
}

// TestGatewaySpillReplaysAcrossCollectorOutage is the zero-loss
// headline: a session commits while the collector is down, the client
// is acked from the spill buffer, and when the collector returns the
// commit replays through the nonce/stream-dedup path exactly once.
func TestGatewaySpillReplaysAcrossCollectorOutage(t *testing.T) {
	st := store.New()
	_, addr, stopCollector := startCollector(t, st)
	g, gsrv := startGateway(t, fastConfig(trunkURL(addr)))
	tiertest.WaitFor(t, "trunks to establish", func() bool { return g.Health().Pools[0].TrunksHealthy > 0 })

	_ = stopCollector()
	tiertest.WaitFor(t, "trunks to drop", func() bool { return g.Health().Pools[0].TrunksHealthy == 0 })

	// The client's whole session happens during the outage; Report
	// returning nil is the gateway's promise.
	client := &beacon.Client{CollectorURL: gsrv.BeaconURL()}
	p := tiertest.Payload(1)
	if err := client.Report(context.Background(), p, 40*time.Millisecond); err != nil {
		t.Fatalf("client not acked during collector outage: %v", err)
	}
	// The close handshake the client just saw races the commit's spill
	// insert by microseconds; wait for it rather than sampling.
	tiertest.WaitFor(t, "commit to spill", func() bool { return g.Health().SpillPending == 1 })
	if st.Len() != 0 {
		t.Fatal("impression reached a stopped collector?")
	}

	// Collector restarts on the same address with the surviving store
	// (its nonce cache reseeds from it in New).
	collectortest.Serve(t, st, collectortest.TCP(t, addr), nil)

	tiertest.WaitFor(t, "spilled commit to replay", func() bool { return st.Len() == 1 && g.Health().SpillPending == 0 })
	im, _ := st.Get(1)
	if im.Nonce != p.Nonce {
		t.Fatalf("replayed nonce = %q, want %q", im.Nonce, p.Nonce)
	}
	if got := series(g, "adaudit_gateway_acks_total"); got != 1 {
		t.Fatalf("acks = %v, want 1", got)
	}
}
