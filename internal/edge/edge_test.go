package edge

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/collector"
	"adaudit/internal/collector/collectortest"
	"adaudit/internal/daemon"
	"adaudit/internal/memnet"
	"adaudit/internal/shardmerge"
	"adaudit/internal/simclock"
	"adaudit/internal/store"
	"adaudit/internal/telemetry"
	"adaudit/internal/tiertest"
	"adaudit/internal/trace"
	"adaudit/internal/wsproto"
)

// tiers are the two configurations the core ships in: everything in
// this package runs once as a one-pool edge named like the gateway and
// once as a two-pool edge named like the router, because the number of
// upstreams is the only thing that differs between them.
var tiers = []struct {
	name  string
	pools int
}{
	{"gateway", 1},
	{"router", 2},
}

// fixture is one edge in front of its collectors, which it trunks to
// over an in-memory network.
type fixture struct {
	t      *testing.T
	e      *Edge
	srv    *daemon.Server
	tel    Instruments
	pools  []PoolInstruments
	net    *memnet.Network
	stores []*store.Store
	addrs  []string
	stops  []func() error
}

type fixtureOptions struct {
	collector func(*collector.Config)
	edge      func(*Config)
	// beacon adjusts the edge's beacon endpoint before it serves.
	beacon func(*beacon.Server)
	// net is the network the collectors listen on (default: a fresh one),
	// listener the edge's (default: TCP on a free loopback port).
	net      *memnet.Network
	listener net.Listener
	// deadUpstreams points every pool at an address nothing listens on.
	deadUpstreams bool
}

// startTier boots pools collectors and an edge named name in front of
// them, tuned for test time scales, with instruments registered the way
// a tier package would, and serves it until the test ends.
func startTier(t *testing.T, name string, pools int, o fixtureOptions) *fixture {
	t.Helper()
	f := buildTier(t, name, pools, o)
	tiertest.Serve(t, f.srv)
	return f
}

// buildTier is startTier without the serving.
func buildTier(t *testing.T, name string, pools int, o fixtureOptions) *fixture {
	t.Helper()
	f := &fixture{t: t, net: o.net}
	if f.net == nil {
		f.net = &memnet.Network{Buffer: 64 << 10}
	}
	reg := telemetry.NewRegistry()
	f.tel = Instruments{
		Connections:    reg.Counter("adaudit_"+name+"_connections_total", "", nil),
		SessionsActive: reg.Gauge("adaudit_"+name+"_sessions_active", "", nil),
		Sheds:          reg.CounterVec("adaudit_"+name+"_sheds_total", "", "reason"),
		Upgrades:       reg.CounterVec("adaudit_"+name+"_upgrades_total", "", "via"),
		Events:         reg.Counter("adaudit_"+name+"_events_total", "", nil),
		Commits:        reg.Counter("adaudit_"+name+"_commits_total", "", nil),
	}
	cfg := Config{
		Name: name, IDPrefix: name[:2] + "-",
		TrunkToken:        collectortest.TrunkToken,
		Dialer:            wsproto.Dialer{NetDial: f.net.Dial},
		KeepAliveInterval: 50 * time.Millisecond,
		AckTimeout:        300 * time.Millisecond,
		ReplayInterval:    50 * time.Millisecond,
		BreakerThreshold:  3,
		BreakerCooldown:   50 * time.Millisecond,
		RetryAfterHint:    2 * time.Second,
		Telemetry:         reg,
		Tel:               f.tel,
	}
	for i := 0; i < pools; i++ {
		lbl := map[string]string{"shard_id": fmt.Sprint(i)}
		tel := PoolInstruments{
			Commits:       reg.Counter("adaudit_"+name+"_pool_commits_total", "", lbl),
			Acks:          reg.Counter("adaudit_"+name+"_pool_acks_total", "", lbl),
			Rejects:       reg.Counter("adaudit_"+name+"_pool_rejected_total", "", lbl),
			Replays:       reg.Counter("adaudit_"+name+"_pool_replays_total", "", lbl),
			BreakerOpens:  reg.Counter("adaudit_"+name+"_pool_breaker_opens_total", "", lbl),
			TrunkBatches:  reg.Counter("adaudit_"+name+"_pool_trunk_batches_total", "", lbl),
			TrunksHealthy: reg.Gauge("adaudit_"+name+"_pool_trunks_healthy", "", lbl),
			Forward:       reg.Histogram("adaudit_"+name+"_pool_forward_seconds", "", telemetry.LatencyBuckets(), lbl),
			BatchBytes:    reg.Histogram("adaudit_"+name+"_pool_batch_bytes", "", BatchByteBuckets(), lbl),
		}
		f.pools = append(f.pools, tel)
		addr := fmt.Sprintf("collector-%d:80", i)
		if o.deadUpstreams {
			addr = "dead:80"
		} else {
			f.addrs, f.stores, f.stops = append(f.addrs, addr), append(f.stores, store.New()), append(f.stops, nil)
			f.startCollector(i, o.collector)
		}
		cfg.Upstreams = append(cfg.Upstreams, Upstream{URL: "ws://" + addr + "/trunk", Tel: tel})
	}
	if o.edge != nil {
		o.edge(&cfg)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if o.beacon != nil {
		o.beacon(e.Beacon())
	}
	ln := o.listener
	if ln == nil {
		ln = collectortest.TCP(t, "127.0.0.1:0")
	}
	// With no upstream a drain has nothing it could flush: its grace would
	// only be waited out.
	grace := time.Second
	if o.deadUpstreams {
		grace = 10 * time.Millisecond
	}
	if f.srv, err = daemon.New(e.Tier(), "", daemon.WithListener(ln), daemon.WithDrainGrace(grace)); err != nil {
		t.Fatal(err)
	}
	f.e = e
	return f
}

// startCollector (re)starts pool i's collector on its address over its
// store (a restarted collector's nonce cache reseeds from it in New).
func (f *fixture) startCollector(i int, cfg func(*collector.Config)) {
	f.t.Helper()
	ln, err := f.net.Listen(f.addrs[i])
	if err != nil {
		f.t.Fatal(err)
	}
	_, f.stops[i] = collectortest.Serve(f.t, f.stores[i], ln, cfg)
}

// stored sums the collectors' stores.
func (f *fixture) stored() int {
	n := 0
	for _, st := range f.stores {
		n += st.Len()
	}
	return n
}

// impressions returns every stored impression with the shard it is on.
func (f *fixture) impressions() map[int][]store.Impression {
	out := map[int][]store.Impression{}
	for i, st := range f.stores {
		out[i] = tiertest.Stored(st)()
	}
	return out
}

func (f *fixture) waitTrunksUp() {
	f.t.Helper()
	tiertest.WaitFor(f.t, "every trunk to establish", func() bool { return f.e.Health().Status == "ok" })
}

func (f *fixture) waitTrunksDown() {
	f.t.Helper()
	tiertest.WaitFor(f.t, "every trunk to drop", func() bool {
		for _, p := range f.e.Health().Pools {
			if p.TrunksHealthy != 0 {
				return false
			}
		}
		return true
	})
}

// forEachTier runs fn as one subtest per tier configuration.
func forEachTier(t *testing.T, fn func(t *testing.T, name string, pools int)) {
	for _, tc := range tiers {
		t.Run(tc.name, func(t *testing.T) { fn(t, tc.name, tc.pools) })
	}
}

// TestSynthesizesNonce: the nonce is both the replay key and the shard
// key, so a nonce-less payload gets one minted before placement — and
// lands on the pool that nonce hashes to.
func TestSynthesizesNonce(t *testing.T) {
	forEachTier(t, func(t *testing.T, name string, pools int) {
		f := startTier(t, name, pools, fixtureOptions{})
		f.waitTrunksUp()
		p := tiertest.Payload(0)
		p.Nonce = ""
		client := &beacon.Client{CollectorURL: f.srv.BeaconURL()}
		if err := client.Report(context.Background(), p, 30*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		tiertest.WaitFor(t, "impression to land", func() bool { return f.stored() == 1 })
		for shard, ims := range f.impressions() {
			for _, im := range ims {
				if im.Nonce == "" {
					t.Fatal("impression stored without a nonce")
				}
				if want := shardmerge.ShardFor(im.Nonce, pools); want != shard {
					t.Fatalf("nonce %q on shard %d, hash owns shard %d", im.Nonce, shard, want)
				}
			}
		}
	})
}

// TestOriginAdmission covers the allowlist: bare host and subdomain
// origins are admitted, others are refused with 403 before the upgrade.
func TestOriginAdmission(t *testing.T) {
	forEachTier(t, func(t *testing.T, name string, pools int) {
		f := startTier(t, name, pools, fixtureOptions{edge: func(cfg *Config) {
			cfg.AllowedOrigins = []string{"ads.example.com"}
		}})
		dialWithOrigin := func(origin string) (*wsproto.Conn, *http.Response, error) {
			d := &wsproto.Dialer{Header: http.Header{}}
			if origin != "" {
				d.Header.Set("Origin", origin)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			return d.Dial(ctx, f.srv.BeaconURL())
		}
		for _, origin := range []string{"https://ads.example.com", "https://sub.ads.example.com:8443"} {
			conn, _, err := dialWithOrigin(origin)
			if err != nil {
				t.Fatalf("allowed origin %q refused: %v", origin, err)
			}
			conn.Close(wsproto.CloseNormal, "")
		}
		for _, origin := range []string{"https://evil.example.net", "https://notads.example.com.evil.io", ""} {
			_, resp, err := dialWithOrigin(origin)
			if err == nil {
				t.Fatalf("origin %q admitted, want 403", origin)
			}
			if resp == nil || resp.StatusCode != http.StatusForbidden {
				t.Fatalf("origin %q: response %+v, want 403", origin, resp)
			}
		}
		if got := f.tel.Sheds.With(ShedOrigin).Load(); got != 3 {
			t.Fatalf("origin sheds = %v, want 3", got)
		}
	})
}

// expectShed requests the beacon endpoint and checks the refusal:
// admission runs before the upgrade, so a plain GET sees it too.
func expectShed(t *testing.T, f *fixture, reason string) {
	t.Helper()
	resp, err := http.Get("http://" + f.srv.Addr().String() + "/beacon")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("%s shed status = %d, want 503", reason, resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Fatalf("%s shed Retry-After = %q, want %q (RetryAfterHint rounded up to seconds)", reason, got, "2")
	}
	if got, want := strings.TrimSpace(string(body)), f.e.cfg.Name+" "+reason; got != want {
		t.Fatalf("shed body = %q, want %q", got, want)
	}
}

// TestShedsWhenSpillFull: SpillLimit counts across every pool's spill;
// at the cap (an upstream gone for too long) admission flips to
// shedding rather than promising acks the edge cannot keep.
func TestShedsWhenSpillFull(t *testing.T) {
	forEachTier(t, func(t *testing.T, name string, pools int) {
		f := startTier(t, name, pools, fixtureOptions{
			deadUpstreams: true,
			edge:          func(cfg *Config) { cfg.SpillLimit = 1 },
		})
		client := &beacon.Client{CollectorURL: f.srv.BeaconURL()}
		if err := client.Report(context.Background(), tiertest.Payload(5), 10*time.Millisecond); err != nil {
			t.Fatalf("first session should be acked into the spill: %v", err)
		}
		tiertest.WaitFor(t, "commit to spill", func() bool { return f.e.Health().SpillPending == 1 })
		expectShed(t, f, ShedSpill)
		if got := f.tel.Sheds.With(ShedSpill).Load(); got != 1 {
			t.Fatalf("spill sheds = %v, want 1", got)
		}
	})
}

// TestOutageReplayCarriesEveryEvent: a session that runs while every
// upstream is down is acked from the spill, and once the collectors
// return its commit lands exactly once with every event the session
// sent — the commit is the only thing a session sends upstream, so an
// outage costs it nothing.
func TestOutageReplayCarriesEveryEvent(t *testing.T) {
	forEachTier(t, func(t *testing.T, name string, pools int) {
		f := startTier(t, name, pools, fixtureOptions{})
		f.waitTrunksUp()
		for _, stop := range f.stops {
			stop()
		}
		f.waitTrunksDown()

		client := &beacon.Client{CollectorURL: f.srv.BeaconURL()}
		sess, err := client.Open(context.Background(), tiertest.Payload(4))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 32; i++ {
			if err := sess.SendEvent(beacon.Event{Kind: beacon.EventMouseMove, At: time.Duration(i) * time.Millisecond}); err != nil {
				t.Fatal(err)
			}
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		for i := range f.stops {
			f.startCollector(i, nil)
		}
		tiertest.WaitFor(t, "commit to replay", func() bool {
			return f.stored() == 1 && f.e.Health().SpillPending == 0
		})
		for _, ims := range f.impressions() {
			for _, im := range ims {
				if im.MouseMoves != 32 {
					t.Fatalf("mouse moves = %d, want all 32 carried by the commit", im.MouseMoves)
				}
			}
		}
	})
}

// TestTraceSpans: a sampled impression traced through the edge carries
// the two edge spans, spliced into the collector's pipeline stages.
func TestTraceSpans(t *testing.T) {
	forEachTier(t, func(t *testing.T, name string, pools int) {
		rec := trace.NewRecorder(16)
		tracer := trace.NewTracer(rec, 1)
		f := startTier(t, name, pools, fixtureOptions{
			collector: func(cfg *collector.Config) { cfg.Tracer = tracer },
		})
		f.waitTrunksUp()
		client := &beacon.Client{CollectorURL: f.srv.BeaconURL(), Tracer: tracer}
		if err := client.Report(context.Background(), tiertest.Payload(3), 30*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		tiertest.WaitFor(t, "impression to land", func() bool { return f.stored() == 1 })

		var snap trace.Snapshot
		tiertest.WaitFor(t, "trace to appear", func() bool {
			recent := rec.Recent(1)
			if len(recent) == 0 {
				return false
			}
			snap = recent[0]
			return len(snap.Stages) >= 5
		})
		names := make([]string, len(snap.Stages))
		for i, s := range snap.Stages {
			names[i] = s.Name
		}
		wantPrefix := []string{
			trace.StageBeaconSend, trace.StageWireRecv,
			trace.StageGatewayRecv, trace.StageTrunkForward, trace.StageDecode,
		}
		for i, want := range wantPrefix {
			if i >= len(names) || names[i] != want {
				t.Fatalf("stage sequence = %v, want prefix %v", names, wantPrefix)
			}
		}
		// The two edge spans bracket the session in causal order.
		if snap.StageOffset(trace.StageTrunkForward) < snap.StageOffset(trace.StageGatewayRecv) {
			t.Fatalf("trunk_forward (%v) precedes gateway_recv (%v)",
				snap.StageOffset(trace.StageTrunkForward), snap.StageOffset(trace.StageGatewayRecv))
		}
	})
}

// TestHealthLadder walks /healthz through the three levels by breaking
// trunks: every trunk of every pool up → ok (200); one trunk of pool 0
// down → degraded (200, its upstream is still reachable); pool 0's
// upstream gone → unhealthy (503), even while the other pools are fine,
// because that slice of the keyspace has nowhere else to go. Faults go
// in through Config.Dialer: the test holds every trunk's transport and
// can refuse redials, so a severed slot stays down behind its breaker
// instead of coming back a millisecond later.
func TestHealthLadder(t *testing.T) {
	forEachTier(t, func(t *testing.T, name string, pools int) {
		var (
			mu     sync.Mutex
			dialed = map[string][]net.Conn{} // upstream addr → trunk transports
			refuse atomic.Bool
		)
		nw := &memnet.Network{Buffer: 64 << 10}
		f := startTier(t, name, pools, fixtureOptions{net: nw, edge: func(cfg *Config) {
			cfg.TrunksPerPool = 2
			cfg.BreakerThreshold = 1
			cfg.BreakerCooldown = 30 * time.Second
			cfg.Dialer.NetDial = func(ctx context.Context, network, addr string) (net.Conn, error) {
				if refuse.Load() {
					return nil, errors.New("redial refused by test")
				}
				c, err := nw.Dial(ctx, network, addr)
				if err == nil {
					mu.Lock()
					dialed[addr] = append(dialed[addr], c)
					mu.Unlock()
				}
				return c, err
			}
		}})
		getHealth := func() (int, telemetry.Health) {
			resp, err := http.Get(fmt.Sprintf("http://%s/healthz", f.srv.Addr()))
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

		f.waitTrunksUp()
		// Each pool is one upstream_<i> check, plus spill_pending.
		if code, h := getHealth(); code != http.StatusOK || h.Status != "ok" || len(h.Checks) != pools+1 {
			t.Fatalf("healthz with all trunks = %d %+v, want 200 ok with %d pools", code, h, pools)
		}

		// Sever one of pool 0's trunks; its breaker opens on the refused
		// redial and keeps the slot down.
		refuse.Store(true)
		mu.Lock()
		_ = dialed[f.addrs[0]][0].Close()
		mu.Unlock()
		tiertest.WaitFor(t, "one trunk down", func() bool { return f.pools[0].BreakerOpens.Load() == 1 })
		code, h := getHealth()
		if up := h.Checks["upstream_0"]; code != http.StatusOK || h.Status != "degraded" ||
			up.Status != "degraded" || up.Value != 1 || up.Limit != 2 {
			t.Fatalf("healthz with one trunk down = %d %+v, want 200 degraded", code, h)
		}

		// Take pool 0's collector away entirely: the survivor drops too.
		_ = f.stops[0]()
		tiertest.WaitFor(t, "pool 0 trunks down", func() bool { return f.e.Health().Pools[0].TrunksHealthy == 0 })
		code, h = getHealth()
		if code != http.StatusServiceUnavailable || h.Status != "unhealthy" || h.Checks["upstream_0"].Status != "unhealthy" {
			t.Fatalf("healthz with a dead upstream = %d %+v, want 503 unhealthy", code, h)
		}
		for i := 1; i < pools; i++ {
			if p := h.Checks[fmt.Sprint("upstream_", i)]; p.Status != "ok" || p.Value != p.Limit {
				t.Fatalf("pool %d = %+v, want untouched by pool 0's outage", i, p)
			}
		}
	})
}

// TestBreakerCountsTrunksRefusedAtHello: an upstream that accepts the
// trunk and closes it at the Hello (another protocol version, a
// draining collector) is a dead upstream that happens to complete
// handshakes. The breaker paces its redials like failed dials; counting
// dial errors only, it was redialled thousands of times a second. The
// edge and the network run on a virtual clock, stepped a millisecond at
// a time while nothing is in flight, so the rate is exact.
func TestBreakerCountsTrunksRefusedAtHello(t *testing.T) {
	clk := simclock.NewVirtual(time.Time{})
	nw := &memnet.Network{Clock: clk, Buffer: 64 << 10}
	ln, err := nw.Listen("refusing:80")
	if err != nil {
		t.Fatal(err)
	}
	var accepted atomic.Int64
	upstream := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := (&wsproto.Upgrader{}).Upgrade(w, r)
		if err != nil {
			return
		}
		accepted.Add(1)
		_, _, _ = conn.ReadMessage() // the Hello
		_ = conn.Close(wsproto.ClosePolicyViolation, "trunk protocol version 2, this build speaks 3")
	})}
	go upstream.Serve(ln)
	defer upstream.Close()

	f := startTier(t, "gateway", 1, fixtureOptions{deadUpstreams: true, edge: func(cfg *Config) {
		cfg.Upstreams[0].URL = "ws://refusing:80/trunk"
		cfg.Dialer.NetDial = nw.Dial
		cfg.TrunksPerPool, cfg.BreakerThreshold, cfg.BreakerCooldown = 1, 3, 200*time.Millisecond
		cfg.Clock = clk
	}})
	// One virtual second. A redial storm ends the loop early: the clock
	// cannot step while it runs.
	stacks := make([]byte, 1<<20)
	for start := clk.Now(); clk.Since(start) < time.Second && accepted.Load() <= 7; runtime.Gosched() {
		if nw.Quiescent(&stacks) {
			clk.Advance(time.Millisecond)
		}
	}
	// 3 trunks 50 ms apart open the breaker, then one probe per 200 ms
	// cooldown: at 0, 50, 100, 300, 500, 700 and 900 ms.
	if n, opens := accepted.Load(), f.pools[0].BreakerOpens.Load(); n != 7 || opens != 1 {
		t.Fatalf("one virtual second against a refusing upstream: %d trunks accepted, %d breaker openings; want 7 and 1", n, opens)
	}
}
