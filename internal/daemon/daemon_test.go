package daemon_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"adaudit/internal/audit"
	"adaudit/internal/collector"
	"adaudit/internal/daemon"
	"adaudit/internal/gateway"
	"adaudit/internal/ipmeta"
	"adaudit/internal/publisher"
	"adaudit/internal/router"
	"adaudit/internal/shardmerge"
	"adaudit/internal/store"
	"adaudit/internal/streamaudit"
	"adaudit/internal/telemetry"
	"adaudit/internal/trace"
)

const token = "daemon-test"

// serve runs srv until the test ends.
func serve(t *testing.T, srv interface{ Serve(context.Context) error }) {
	t.Helper()
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
			t.Error("server did not stop")
		}
	})
}

// startCollector serves a traced collector; with meta set it also runs
// a live audit engine.
func startCollector(t *testing.T, meta audit.MetadataSource, opts ...collector.ServerOption) *collector.Server {
	t.Helper()
	st := store.New()
	c, err := collector.New(collector.Config{
		Store:      st,
		Anonymizer: ipmeta.NewAnonymizer([]byte(token)),
		TrunkToken: token,
		Tracer:     trace.NewTracer(trace.NewRecorder(16), 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if meta != nil {
		eng, err := streamaudit.New(streamaudit.Config{Store: st, Meta: meta})
		if err != nil {
			t.Fatal(err)
		}
		opts = append(opts, collector.WithLiveAudit(eng))
	}
	srv, err := collector.NewServer(c, "127.0.0.1:0", append(opts, daemon.WithDrainGrace(time.Second))...)
	if err != nil {
		t.Fatal(err)
	}
	serve(t, srv)
	return srv
}

// topology is one daemon of each tier: a collector with a failing
// custom check behind a gateway, and a router over two live shards
// serving the merged live API.
type topology struct {
	coll   *collector.Server
	gw     *gateway.Server
	rt     *router.Server
	shards []*collector.Server
}

func startTopology(t *testing.T) topology {
	t.Helper()
	uni, err := publisher.NewUniverse(publisher.Config{Seed: 5, NumPublishers: 60})
	if err != nil {
		t.Fatal(err)
	}
	meta := audit.UniverseMetadata{Universe: uni}
	var tp topology
	tp.coll = startCollector(t, nil,
		collector.WithHealthCheck("disk", func() error { return errors.New("disk gone") }))
	var shardURLs, shardAPI []string
	for i := 0; i < 2; i++ {
		s := startCollector(t, meta)
		tp.shards = append(tp.shards, s)
		shardURLs = append(shardURLs, fmt.Sprintf("ws://%s/trunk", s.Addr()))
		shardAPI = append(shardAPI, fmt.Sprintf("http://%s", s.Addr()))
	}

	g, err := gateway.New(gateway.Config{
		CollectorURL: fmt.Sprintf("ws://%s/trunk", tp.coll.Addr()),
		TrunkToken:   token,
		GatewayID:    "gw-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	if tp.gw, err = gateway.NewServer(g, "127.0.0.1:0", gateway.WithDrainGrace(time.Second)); err != nil {
		g.Close()
		t.Fatal(err)
	}
	serve(t, tp.gw)

	r, err := router.New(router.Config{Shards: shardURLs, TrunkToken: token, RouterID: "rt-test"})
	if err != nil {
		t.Fatal(err)
	}
	if tp.rt, err = router.NewServer(r, "127.0.0.1:0", router.WithDrainGrace(time.Second),
		router.WithLiveMerge(&shardmerge.Client{Shards: shardAPI}, streamaudit.StaticConfig{Meta: meta})); err != nil {
		r.Close()
		t.Fatal(err)
	}
	serve(t, tp.rt)

	deadline := time.Now().Add(5 * time.Second)
	for g.Health().Status != "ok" || r.Health().Status != "ok" {
		if time.Now().After(deadline) {
			t.Fatal("trunks did not establish")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return tp
}

func getHealth(t *testing.T, addr fmt.Stringer) (int, telemetry.Health) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h telemetry.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, h
}

// TestHealthzAcrossTiers: the collector, the gateway and the router
// answer /healthz in the one schema — tier and id set, each tier's
// checks by name, status the worst of them and the HTTP code its.
func TestHealthzAcrossTiers(t *testing.T) {
	tp := startTopology(t)
	collectorChecks := []string{"feed_subscribers", "ingest_age", "store_records", "wal_sync"}
	for _, tc := range []struct {
		addr       fmt.Stringer
		tier, id   string
		checks     []string
		wantStatus string
	}{
		{tp.coll.Addr(), "collector", tp.coll.Addr().String(), append([]string{"disk"}, collectorChecks...), "unhealthy"},
		{tp.shards[0].Addr(), "collector", tp.shards[0].Addr().String(), append([]string{"audit_freshness"}, collectorChecks...), "ok"},
		{tp.gw.Addr(), "gateway", "gw-test", []string{"spill_pending", "upstream_0"}, "ok"},
		{tp.rt.Addr(), "router", "rt-test", []string{"spill_pending", "upstream_0", "upstream_1"}, "ok"},
	} {
		code, h := getHealth(t, tc.addr)
		if h.Tier != tc.tier || h.ID != tc.id {
			t.Errorf("%s: tier %q id %q, want %q %q", tc.tier, h.Tier, h.ID, tc.tier, tc.id)
		}
		var names []string
		worst := "ok"
		for name, c := range h.Checks {
			names = append(names, name)
			if rank(c.Status) > rank(worst) {
				worst = c.Status
			}
		}
		sort.Strings(names)
		if strings.Join(names, ",") != strings.Join(tc.checks, ",") {
			t.Errorf("%s %s: checks %v, want %v", tc.tier, tc.id, names, tc.checks)
		}
		wantCode := http.StatusOK
		if worst == "unhealthy" {
			wantCode = http.StatusServiceUnavailable
		}
		if h.Status != worst || h.Status != tc.wantStatus || code != wantCode {
			t.Errorf("%s %s: %d %q with worst check %q, want %q", tc.tier, tc.id, code, h.Status, worst, tc.wantStatus)
		}
	}
}

func rank(status string) int {
	return map[string]int{"ok": 0, "degraded": 1, "unhealthy": 2}[status]
}

// TestOperationalRoutesAreGETOnly: every operational route of every
// tier refuses POST in its mux pattern.
func TestOperationalRoutesAreGETOnly(t *testing.T) {
	tp := startTopology(t)
	shell := []string{"/healthz", "/metrics", "/api/metrics"}
	live := []string{"/api/live/summary", "/api/live/audit/x", "/api/live/export"}
	routes := map[string][]string{
		tp.shards[0].Addr().String(): append(append([]string{
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
