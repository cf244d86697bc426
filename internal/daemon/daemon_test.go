package daemon_test

import (
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"

	"adaudit/internal/audit"
	"adaudit/internal/collector"
	"adaudit/internal/collector/collectortest"
	"adaudit/internal/daemon"
	"adaudit/internal/gateway"
	"adaudit/internal/publisher"
	"adaudit/internal/router"
	"adaudit/internal/shardmerge"
	"adaudit/internal/store"
	"adaudit/internal/streamaudit"
	"adaudit/internal/tiertest"
	"adaudit/internal/trace"
	"adaudit/internal/wsproto"
)

// daemons are the three tiers as the conformance table starts them, for
// the rows every daemon answers alike: a collector whose custom check
// fails (so it answers 503), a gateway in front of one collector, a
// router in front of two.
var daemons = []tiertest.Spec{
	{Name: "collector", Start: func(t *testing.T, s tiertest.Setup) *tiertest.Tier {
		_, srv := collectortest.New(t, store.New(), s.Listener, nil,
			collector.WithHealthCheck("disk", func() error { return errors.New("disk gone") }))
		return &tiertest.Tier{Tier: daemon.Tier{Name: "collector"}, Server: srv}
	}, Healthz: func(tr *tiertest.Tier) map[string]any {
		check := func(status string, limit float64, detail string) map[string]any {
			return map[string]any{"status": status, "value": 0.0, "limit": limit, "detail": detail}
		}
		return map[string]any{"status": "unhealthy", "tier": "collector", "id": tr.Server.Addr().String(), "sessions": 0.0,
			"checks": map[string]any{
				"disk":             check("unhealthy", 0, "disk gone"),
				"feed_subscribers": check("ok", 0, "change-feed subscribers dropped since the last probe (consumers resyncing); 0 in all"),
				"ingest_age":       map[string]any{"status": "ok", "limit": 0.0, "detail": "seconds since the last committed record; no bound set"},
				"store_records":    map[string]any{"status": "ok", "value": 0.0, "limit": 0.0},
				"wal_sync":         check("ok", 30, "seconds the oldest unsynced journal entry has waited for its fsync"),
			}}
	}},
	{Name: "gateway", Start: func(t *testing.T, s tiertest.Setup) *tiertest.Tier {
		g, err := gateway.New(gateway.Config{CollectorURL: upstreams(t, s, 1)[0], TrunkToken: collectortest.TrunkToken,
			GatewayID: "gw-test", Dialer: wsproto.Dialer{NetDial: s.Net.Dial}})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := gateway.NewServer(g, "", daemon.WithListener(s.Listener))
		if err != nil {
			t.Fatal(err)
		}
		tiertest.WaitFor(t, "trunks to establish", func() bool { return g.Health().Status == "ok" })
		return &tiertest.Tier{Tier: g.Tier(), Server: srv}
	}},
	{Name: "router", Start: func(t *testing.T, s tiertest.Setup) *tiertest.Tier {
		r, err := router.New(router.Config{Shards: upstreams(t, s, 2), TrunkToken: collectortest.TrunkToken,
			RouterID: "rt-test", Dialer: wsproto.Dialer{NetDial: s.Net.Dial}})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := router.NewServer(r, "", daemon.WithListener(s.Listener))
		if err != nil {
			t.Fatal(err)
		}
		tiertest.WaitFor(t, "trunks to establish", func() bool { return r.Health().Status == "ok" })
		return &tiertest.Tier{Tier: r.Tier(), Server: srv}
	}},
}

// upstreams serves n collectors on the row's network and returns their
// trunk URLs.
func upstreams(t *testing.T, s tiertest.Setup, n int) (urls []string) {
	for i := 0; i < n; i++ {
		ln, err := s.Net.Listen(fmt.Sprintf("collector-%d:80", i))
		if err != nil {
			t.Fatal(err)
		}
		collectortest.Serve(t, store.New(), ln, nil)
		urls = append(urls, "ws://"+ln.Addr().String()+"/trunk")
	}
	return urls
}

// TestHealthzAcrossTiers: the collector, the gateway and the router
// answer /healthz in the one schema — tier and id set, status the worst
// of the checks and the HTTP code its — the collector with its failing
// check among its own.
func TestHealthzAcrossTiers(t *testing.T) { tiertest.Check(t, tiertest.Healthz, daemons...) }

// startShard serves a traced collector with a live audit engine over
// meta.
func startShard(t *testing.T, meta audit.MetadataSource) string {
	t.Helper()
	st := store.New()
	eng, err := streamaudit.New(streamaudit.Config{Store: st, Meta: meta})
	if err != nil {
		t.Fatal(err)
	}
	ln := collectortest.TCP(t, "127.0.0.1:0")
	collectortest.Serve(t, st, ln, func(c *collector.Config) { c.Tracer = trace.NewTracer(trace.NewRecorder(16), 1) },
		collector.WithLiveAudit(eng), daemon.WithDrainGrace(time.Second))
	return ln.Addr().String()
}

// topology is a gateway in front of a live shard and a router over two
// live shards serving the merged live API.
type topology struct {
	gw     *gateway.Server
	rt     *router.Server
	shards []string
}

func startTopology(t *testing.T) topology {
	t.Helper()
	uni, err := publisher.NewUniverse(publisher.Config{Seed: 5, NumPublishers: 60})
	if err != nil {
		t.Fatal(err)
	}
	meta := audit.UniverseMetadata{Universe: uni}
	var tp topology
	var shardURLs, shardAPI []string
	for i := 0; i < 2; i++ {
		addr := startShard(t, meta)
		tp.shards = append(tp.shards, addr)
		shardURLs = append(shardURLs, "ws://"+addr+"/trunk")
		shardAPI = append(shardAPI, "http://"+addr)
	}

	g, err := gateway.New(gateway.Config{CollectorURL: shardURLs[0], TrunkToken: collectortest.TrunkToken, GatewayID: "gw-test"})
	if err != nil {
		t.Fatal(err)
	}
	if tp.gw, err = gateway.NewServer(g, "127.0.0.1:0", gateway.WithDrainGrace(time.Second)); err != nil {
		g.Close()
		t.Fatal(err)
	}
	tiertest.Serve(t, tp.gw)

	r, err := router.New(router.Config{Shards: shardURLs, TrunkToken: collectortest.TrunkToken, RouterID: "rt-test"})
	if err != nil {
		t.Fatal(err)
	}
	if tp.rt, err = router.NewServer(r, "127.0.0.1:0", router.WithDrainGrace(time.Second),
		router.WithLiveMerge(&shardmerge.Client{Shards: shardAPI}, streamaudit.StaticConfig{Meta: meta})); err != nil {
		r.Close()
		t.Fatal(err)
	}
	tiertest.Serve(t, tp.rt)
	return tp
}

// TestOperationalRoutesAreGETOnly: every operational route of every
// tier refuses POST in its mux pattern.
func TestOperationalRoutesAreGETOnly(t *testing.T) {
	tp := startTopology(t)
	shell := []string{"/healthz", "/metrics", "/api/metrics"}
	live := []string{"/api/live/summary", "/api/live/audit/x", "/api/live/export"}
	routes := map[string][]string{
		tp.shards[0]: append(append([]string{
			"/conv", "/api/campaigns", "/api/summary", "/api/publishers", "/api/timeseries", "/api/live/stream",
			"/api/trace/recent", "/api/trace/active", "/api/trace/export", "/api/trace/00000000000000ff",
		}, shell...), live...),
		tp.gw.Addr().String(): shell,
		tp.rt.Addr().String(): append(append([]string{}, shell...), live...),
	}
	for addr, paths := range routes {
		for _, path := range paths {
			resp, err := http.Post("http://"+addr+path, "text/plain", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("POST %s%s = %d, want 405", addr, path, resp.StatusCode)
			}
		}
	}
}
