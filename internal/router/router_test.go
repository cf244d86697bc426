package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaudit/internal/adnet"
	"adaudit/internal/audit"
	"adaudit/internal/beacon"
	"adaudit/internal/collector"
	"adaudit/internal/collector/collectortest"
	"adaudit/internal/daemon"
	"adaudit/internal/gateway"
	"adaudit/internal/memnet"
	"adaudit/internal/publisher"
	"adaudit/internal/shardmerge"
	"adaudit/internal/store"
	"adaudit/internal/streamaudit"
	"adaudit/internal/tiertest"
	"adaudit/internal/trunk"
	"adaudit/internal/wsproto"
)

// shardFixture is n live collector shards for a router to front.
type shardFixture struct {
	colls  []*collector.Collector
	stores []*store.Store
	addrs  []string
}

// startShards serves n collectors, each over its own store, with the
// server options opts gives shard i (e.g. a live audit engine).
func startShards(t *testing.T, n int, opts func(i int, st *store.Store) []collector.ServerOption) *shardFixture {
	t.Helper()
	f := &shardFixture{}
	for i := 0; i < n; i++ {
		st := store.New()
		var o []collector.ServerOption
		if opts != nil {
			o = opts(i, st)
		}
		ln := collectortest.TCP(t, "127.0.0.1:0")
		c, _ := collectortest.Serve(t, st, ln, nil, o...)
		f.colls, f.stores, f.addrs = append(f.colls, c), append(f.stores, st), append(f.addrs, ln.Addr().String())
	}
	return f
}

func (f *shardFixture) trunkURLs() []string {
	urls := make([]string, len(f.addrs))
	for i, a := range f.addrs {
		urls[i] = "ws://" + a + "/trunk"
	}
	return urls
}

func (f *shardFixture) baseURLs() []string {
	urls := make([]string, len(f.addrs))
	for i, a := range f.addrs {
		urls[i] = "http://" + a
	}
	return urls
}

// eventsCounted sums the shards' interaction-event metric.
func (f *shardFixture) eventsCounted() int64 {
	var n int64
	for _, c := range f.colls {
		n += c.Metrics.Events.Load()
	}
	return n
}

// totalLen sums the shard stores.
func (f *shardFixture) totalLen() int {
	n := 0
	for _, st := range f.stores {
		n += st.Len()
	}
	return n
}

// assertPlacement checks every stored impression sits on the shard its
// nonce hashes to — the router's core routing invariant.
func (f *shardFixture) assertPlacement(t *testing.T) {
	t.Helper()
	for i, st := range f.stores {
		st.Visit(func(im *store.Impression) bool {
			if im.Nonce == "" {
				t.Errorf("shard %d: impression %d stored without nonce", i, im.ID)
				return true
			}
			if want := shardmerge.ShardFor(im.Nonce, len(f.stores)); want != i {
				t.Errorf("nonce %q on shard %d, hash owns shard %d", im.Nonce, i, want)
			}
			return true
		})
	}
}

// fastRouterConfig returns a router Config tuned for test time scales.
func fastRouterConfig(shardURLs []string) Config {
	return Config{
		Shards:            shardURLs,
		TrunkToken:        collectortest.TrunkToken,
		RouterID:          "rt-test",
		KeepAliveInterval: 50 * time.Millisecond,
		AckTimeout:        300 * time.Millisecond,
		ReplayInterval:    50 * time.Millisecond,
		BreakerCooldown:   50 * time.Millisecond,
	}
}

// startRouter builds and serves a router; the cleanup closes it.
func startRouter(t *testing.T, cfg Config, opts ...ServerOption) (*Router, *Server) {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts = append([]ServerOption{WithDrainGrace(time.Second)}, opts...)
	srv, err := NewServer(r, "127.0.0.1:0", opts...)
	if err != nil {
		t.Fatal(err)
	}
	tiertest.Serve(t, srv)
	return r, srv
}

// startGateway builds and serves a gateway trunking into trunkURL and
// waits for its trunks; the cleanup closes it.
func startGateway(t *testing.T, trunkURL string) (*gateway.Gateway, *gateway.Server) {
	t.Helper()
	g, err := gateway.New(gateway.Config{
		CollectorURL:      trunkURL,
		TrunkToken:        collectortest.TrunkToken,
		GatewayID:         "gw-relay-test",
		KeepAliveInterval: 50 * time.Millisecond,
		AckTimeout:        300 * time.Millisecond,
		ReplayInterval:    50 * time.Millisecond,
		BreakerCooldown:   50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	gsrv, err := gateway.NewServer(g, "127.0.0.1:0", gateway.WithDrainGrace(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	tiertest.Serve(t, gsrv)
	tiertest.WaitFor(t, "gateway trunks to establish", func() bool { return g.Health().Status == "ok" })
	return g, gsrv
}

// allTrunksUp reports whether every shard pool has its full trunk
// complement established.
// trunkURL is the ws:// URL gateways trunk into.
func trunkURL(s *Server) string { return "ws://" + s.Addr().String() + "/trunk" }

func allTrunksUp(r *Router) bool { return r.Health().Status == "ok" }

// seriesSum reads one of the router's metrics by name from its
// registry, summed over its shard_id series.
func seriesSum(r *Router, name string) float64 {
	sum := 0.0
	for _, s := range r.Telemetry().Snapshot() {
		if s.Name == name {
			sum += s.Value
		}
	}
	return sum
}

// TestRouterEndToEnd pushes sessions through the full sharded path —
// client → router → shard trunks → N collectors — and checks every
// impression lands on exactly the shard its nonce hashes to, with
// events and exposure intact, and that every pool's spill buffer drains
// on the acks.
func TestRouterEndToEnd(t *testing.T) {
	const shards, sessions = 3, 24
	f := startShards(t, shards, nil)
	r, rsrv := startRouter(t, fastRouterConfig(f.trunkURLs()))
	tiertest.WaitFor(t, "all shard trunks to establish", func() bool { return allTrunksUp(r) })

	client := &beacon.Client{CollectorURL: rsrv.BeaconURL()}
	ctx := context.Background()
	payloads := make([]beacon.Payload, sessions)
	for i := range payloads {
		payloads[i] = tiertest.Payload(i)
		sess, err := client.Open(ctx, payloads[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.SendEvent(beacon.Event{Kind: beacon.EventClick, At: 10 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
	}

	tiertest.WaitFor(t, "all impressions to reach their shards",
		func() bool { return f.totalLen() == sessions })
	f.assertPlacement(t)

	// The hash must actually spread the workload: with 24 random nonces
	// on 3 shards, an empty shard means the partition function is not
	// being consulted.
	for i, st := range f.stores {
		if st.Len() == 0 {
			t.Errorf("shard %d received no impressions out of %d", i, sessions)
		}
	}
	// Per-impression integrity survived the extra hop.
	seen := map[string]bool{}
	for _, st := range f.stores {
		st.Visit(func(im *store.Impression) bool {
			seen[im.Nonce] = true
			if im.Clicks != 1 {
				t.Errorf("nonce %q: clicks = %d, want 1", im.Nonce, im.Clicks)
			}
			return true
		})
	}
	for _, p := range payloads {
		if !seen[p.Nonce] {
			t.Errorf("nonce %q never landed on any shard", p.Nonce)
		}
	}
	tiertest.WaitFor(t, "spill buffers to drain", func() bool { return r.Health().SpillPending == 0 })
	if acks := seriesSum(r, "adaudit_router_shard_acks_total"); acks != sessions {
		t.Fatalf("summed shard acks = %v, want %d", acks, sessions)
	}
	// Every event rode its session's commit, and every commit is acked.
	if events := f.eventsCounted(); events != sessions {
		t.Fatalf("summed shard events metric = %d, want %d (direct-path parity)", events, sessions)
	}
}

// TestRouterTrunkRelay fronts the router with a real gateway: the
// gateway trunks into /trunk believing the router is its collector, the
// router re-streams each commit onto the owning shard, and the shard's
// ack flows back so the gateway's spill drains. The full edge topology
// — client → gateway → router → shard — with zero protocol changes at
// either neighbor.
func TestRouterTrunkRelay(t *testing.T) {
	const shards, sessions = 2, 10
	f := startShards(t, shards, nil)
	r, rsrv := startRouter(t, fastRouterConfig(f.trunkURLs()))
	tiertest.WaitFor(t, "shard trunks to establish", func() bool { return allTrunksUp(r) })

	g, gsrv := startGateway(t, trunkURL(rsrv))
	if got := seriesSum(r, "adaudit_router_relay_trunks_active"); got < 1 {
		t.Fatalf("relay trunks gauge = %v, want >= 1", got)
	}

	client := &beacon.Client{CollectorURL: gsrv.BeaconURL()}
	ctx := context.Background()
	for i := 0; i < sessions; i++ {
		sess, err := client.Open(ctx, tiertest.Payload(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.SendEvent(beacon.Event{Kind: beacon.EventClick, At: 5 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
	}

	tiertest.WaitFor(t, "all relayed impressions to reach their shards",
		func() bool { return f.totalLen() == sessions })
	f.assertPlacement(t)
	// The relayed acks must travel the whole way back: shard → router
	// spill → gateway spill.
	tiertest.WaitFor(t, "router spill to drain", func() bool { return r.Health().SpillPending == 0 })
	tiertest.WaitFor(t, "gateway spill to drain", func() bool { return g.Health().SpillPending == 0 })
	if events := f.eventsCounted(); events != sessions {
		t.Fatalf("summed shard events metric = %d, want %d (direct-path parity)", events, sessions)
	}
}

// stallListener hands out connections the test can stall, in accept
// order.
type stallListener struct {
	net.Listener
	accepted chan *stallConn
}

func (l *stallListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	c := &stallConn{Conn: nc, closed: make(chan struct{})}
	select {
	case l.accepted <- c:
	default:
	}
	return c, nil
}

// stallConn is a transport whose peer can stop reading: once stalled, a
// write parks until its deadline or the close, as one to a partitioned
// peer does once the TCP window is full.
type stallConn struct {
	net.Conn
	stalled   atomic.Bool
	mu        sync.Mutex
	deadline  time.Time
	closed    chan struct{}
	closeOnce sync.Once
}

func (c *stallConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline = t
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

func (c *stallConn) Write(b []byte) (int, error) {
	if !c.stalled.Load() {
		return c.Conn.Write(b)
	}
	c.mu.Lock()
	d := c.deadline
	c.mu.Unlock()
	var expired <-chan time.Time
	if !d.IsZero() {
		timer := time.NewTimer(time.Until(d))
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case <-expired:
		return 0, os.ErrDeadlineExceeded
	case <-c.closed:
		return 0, net.ErrClosed
	}
}

func (c *stallConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestStalledGatewayDoesNotFreezeShardTrunk: a relayed ack is written on
// the reader goroutine of the shard trunk that carried it, which every
// other ack from that shard waits behind. A gateway that stops reading
// must cost only its own relay trunk: the write gives up after
// AckTimeout and closes that trunk, and a direct beacon session on the
// same shard trunk is still acked. At the parent commit the write had no
// deadline, and the shard trunk acked nothing more.
func TestStalledGatewayDoesNotFreezeShardTrunk(t *testing.T) {
	f := startShards(t, 1, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stalls := &stallListener{Listener: ln, accepted: make(chan *stallConn, 8)}
	cfg := fastRouterConfig(f.trunkURLs())
	cfg.TrunksPerShard = 1 // one reader carries every ack from the shard
	r, rsrv := startRouter(t, cfg, daemon.WithListener(stalls))
	tiertest.WaitFor(t, "shard trunk to establish", func() bool { return allTrunksUp(r) })

	d := &wsproto.Dialer{Header: http.Header{trunk.TokenHeader: {collectortest.TrunkToken}}}
	gw, _, err := d.Dial(context.Background(), trunkURL(rsrv))
	if err != nil {
		t.Fatal(err)
	}
	defer gw.NetConn().Close()
	leg := <-stalls.accepted // the router's end of the gateway's trunk
	t.Cleanup(func() { _ = leg.Close() })
	leg.stalled.Store(true)

	p := tiertest.Payload(0)
	batch := trunk.AppendFrame(nil, trunk.Frame{Type: trunk.Hello, Version: trunk.Version, GatewayID: "gw-stalled"})
	batch = trunk.AppendFrame(batch, trunk.Frame{
		Type: trunk.Commit, Stream: 1, RemoteIP: "203.0.113.9",
		ConnectedAt: time.Now().UnixNano(), Exposure: time.Second,
		Payload: string(p.EncodeBinary()),
	})
	if err := gw.WriteMessage(wsproto.OpBinary, batch); err != nil {
		t.Fatal(err)
	}
	// The shard acks the relayed commit; its relay back to the gateway
	// now parks on the stalled transport.
	tiertest.WaitFor(t, "the shard's ack of the relayed commit", func() bool {
		return seriesSum(r, "adaudit_router_shard_acks_total") == 1
	})

	client := &beacon.Client{CollectorURL: rsrv.BeaconURL()}
	if err := client.Report(context.Background(), tiertest.Payload(1), 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	tiertest.WaitFor(t, "the direct session's ack on the same shard trunk", func() bool {
		return seriesSum(r, "adaudit_router_shard_acks_total") == 2 && r.Health().SpillPending == 0
	})
	tiertest.WaitFor(t, "the stalled gateway's trunk to close", func() bool {
		return seriesSum(r, "adaudit_router_relay_trunks_active") == 0
	})
}

// TestGatewayReplayAfterLostAckCountsOnce: the router fails to write a
// shard's ack back to the gateway (its trunk stalls past AckTimeout), so
// the gateway replays the commit on a new trunk. The router has resolved
// the stream already and relays the replay under a fresh stream of its
// own; the shard must drop it as a leg it has counted and ack it, not
// merge the exposure a second time.
func TestGatewayReplayAfterLostAckCountsOnce(t *testing.T) {
	f := startShards(t, 1, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stalls := &stallListener{Listener: ln, accepted: make(chan *stallConn, 8)}
	r, rsrv := startRouter(t, fastRouterConfig(f.trunkURLs()), daemon.WithListener(stalls))
	tiertest.WaitFor(t, "shard trunks to establish", func() bool { return allTrunksUp(r) })

	p := tiertest.Payload(0)
	batch := trunk.AppendFrame(nil, trunk.Frame{Type: trunk.Hello, Version: trunk.Version, GatewayID: "gw-lost-ack"})
	batch = trunk.AppendFrame(batch, trunk.Frame{
		Type: trunk.Commit, Stream: 1, RemoteIP: "203.0.113.9",
		ConnectedAt: time.Now().UnixNano(), Exposure: time.Second,
		Payload: string(p.EncodeBinary()),
	})
	d := &wsproto.Dialer{Header: http.Header{trunk.TokenHeader: {collectortest.TrunkToken}}}
	// dial opens a trunk and sends the commit on it; stall stalls the
	// router's end first, so the shard's ack cannot be written back
	// before the stall takes hold.
	dial := func(stall bool) *wsproto.Conn {
		gw, _, err := d.Dial(context.Background(), trunkURL(rsrv))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = gw.NetConn().Close() })
		leg := <-stalls.accepted // the router's end of this trunk
		t.Cleanup(func() { _ = leg.Close() })
		leg.stalled.Store(stall)
		if err := gw.WriteMessage(wsproto.OpBinary, batch); err != nil {
			t.Fatal(err)
		}
		return gw
	}

	dial(true)
	tiertest.WaitFor(t, "the shard's ack", func() bool { return seriesSum(r, "adaudit_router_shard_acks_total") == 1 })
	tiertest.WaitFor(t, "the ack write to fail and close the trunk", func() bool {
		return seriesSum(r, "adaudit_router_relay_trunks_active") == 0
	})

	gw := dial(false)
	_ = gw.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, msg, err := gw.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if replies, err := trunk.DecodeBatch(msg); err != nil || len(replies) != 1 || replies[0].Type != trunk.Ack || replies[0].Stream != 1 {
		t.Fatalf("the replay was answered %+v (err %v), want an ack of stream 1", replies, err)
	}
	if im, _ := f.stores[0].Get(1); f.totalLen() != 1 || im.Exposure != time.Second {
		t.Fatalf("after the replay: %d records, exposure %v, want one record of 1s", f.totalLen(), im.Exposure)
	}
}

// TestGatewayReplayWhileRouterHoldsItCountsOnce: a gateway replays a
// commit while its shard is down. Only the first hop holds a commit, so
// the router drops both copies — no spill entry, no commit counted —
// and the gateway's replay once the shard is back is the one copy the
// shard receives: one record, one ack.
func TestGatewayReplayWhileRouterHoldsItCountsOnce(t *testing.T) {
	nw := &memnet.Network{Buffer: 64 << 10}
	cfg := fastRouterConfig([]string{"ws://shard:80/trunk"})
	cfg.Dialer = wsproto.Dialer{NetDial: nw.Dial}
	r, rsrv := startRouter(t, cfg)

	p := tiertest.Payload(0)
	commit := trunk.AppendFrame(nil, trunk.Frame{
		Type: trunk.Commit, Stream: 1, RemoteIP: "203.0.113.9",
		ConnectedAt: time.Now().UnixNano(), Exposure: time.Second,
		Payload: string(p.EncodeBinary()),
	})
	d := &wsproto.Dialer{Header: http.Header{trunk.TokenHeader: {collectortest.TrunkToken}}}
	gw, _, err := d.Dial(context.Background(), trunkURL(rsrv))
	if err != nil {
		t.Fatal(err)
	}
	defer gw.NetConn().Close()
	hello := trunk.AppendFrame(nil, trunk.Frame{Type: trunk.Hello, Version: trunk.Version, GatewayID: "gw-replay"})
	for _, batch := range [][]byte{append(hello, commit...), commit} {
		if err := gw.WriteMessage(wsproto.OpBinary, batch); err != nil {
			t.Fatal(err)
		}
	}
	tiertest.WaitFor(t, "the router to read both commit frames", func() bool {
		return seriesSum(r, "adaudit_router_relay_frames_total") == 3
	})
	if n := r.Health().SpillPending; n != 0 {
		t.Fatalf("the router holds %d spilled commits, want 0: a relayed commit is the gateway's to hold", n)
	}
	if n := seriesSum(r, "adaudit_router_commits_total"); n != 0 {
		t.Fatalf("commits_total = %v with the shard down, want 0", n)
	}

	st := store.New()
	ln, err := nw.Listen("shard:80")
	if err != nil {
		t.Fatal(err)
	}
	_, srv := collectortest.New(t, st, ln, nil)
	tiertest.Serve(t, srv)
	tiertest.WaitFor(t, "the shard trunks to establish", func() bool { return allTrunksUp(r) })
	// The gateway's replay, after its AckTimeout.
	if err := gw.WriteMessage(wsproto.OpBinary, commit); err != nil {
		t.Fatal(err)
	}
	tiertest.WaitFor(t, "the shard's ack", func() bool { return seriesSum(r, "adaudit_router_shard_acks_total") == 1 })
	_ = gw.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, msg, err := gw.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if replies, err := trunk.DecodeBatch(msg); err != nil || len(replies) != 1 || replies[0].Type != trunk.Ack || replies[0].Stream != 1 {
		t.Fatalf("the gateway got %+v (err %v), want one ack of stream 1", replies, err)
	}
	// Nothing else may follow: a second relay would ack stream 1 again.
	_ = gw.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if _, msg, err := gw.ReadMessage(); err == nil {
		t.Fatalf("the gateway got a second reply %q, want one ack", msg)
	}
	if im, _ := st.Get(1); st.Len() != 1 || im.Exposure != time.Second {
		t.Fatalf("the shard holds %d records, exposure %v; want one record of 1s", st.Len(), im.Exposure)
	}
	if n := seriesSum(r, "adaudit_router_commits_total"); n != 1 {
		t.Fatalf("commits_total = %v after the ack, want 1", n)
	}
}

// TestTrunkCarriesOnlyHelloAndCommit: a session sends nothing upstream
// until it ends, and then one Commit — so after N sessions through a
// gateway, and through gateway → router → shards, the collectors have
// seen N commit frames, their trunks' hellos, and no other frame type.
func TestTrunkCarriesOnlyHelloAndCommit(t *testing.T) {
	const sessions = 8
	for _, tc := range []struct {
		name   string
		shards int
		relay  bool
	}{
		{"gateway", 1, false},
		{"gateway-router-shards", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := startShards(t, tc.shards, nil)
			upstream := f.trunkURLs()[0]
			if tc.relay {
				r, rsrv := startRouter(t, fastRouterConfig(f.trunkURLs()))
				tiertest.WaitFor(t, "shard trunks to establish", func() bool { return allTrunksUp(r) })
				upstream = trunkURL(rsrv)
			}
			g, gsrv := startGateway(t, upstream)

			client := &beacon.Client{CollectorURL: gsrv.BeaconURL()}
			for i := 0; i < sessions; i++ {
				sess, err := client.Open(context.Background(), tiertest.Payload(i))
				if err != nil {
					t.Fatal(err)
				}
				for _, kind := range []beacon.EventKind{beacon.EventMouseMove, beacon.EventClick} {
					if err := sess.SendEvent(beacon.Event{Kind: kind, At: 5 * time.Millisecond}); err != nil {
						t.Fatal(err)
					}
				}
				if err := sess.Close(); err != nil {
					t.Fatal(err)
				}
			}
			// The gateway's ack is the last link: behind it the shard has
			// ingested and, in the relay case, the router has resolved.
			tiertest.WaitFor(t, "every commit to be acked", func() bool {
				return f.totalLen() == sessions && g.Health().SpillPending == 0
			})

			commits := 0.0
			for i, c := range f.colls {
				for _, s := range c.Telemetry().Snapshot() {
					if s.Name != "adaudit_collector_trunk_frames_total" {
						continue
					}
					switch typ := s.Labels["type"]; typ {
					case "hello":
					case "commit":
						commits += s.Value
					default:
						t.Errorf("shard %d saw %v %q frames on its trunks", i, s.Value, typ)
					}
				}
			}
			if commits != sessions {
				t.Fatalf("collectors saw %v commit frames, want %d", commits, sessions)
			}
		})
	}
}

// TestRouterMergedLiveAPI: shards run live streamaudit engines, the
// router server aggregates them — /api/live/export serves the
// shard-order merge and /api/live/summary answers over it, with counts
// matching the union of the shard stores.
func TestRouterMergedLiveAPI(t *testing.T) {
	const shards, sessions = 2, 12
	uni, err := publisher.NewUniverse(publisher.Config{Seed: 5, NumPublishers: 120})
	if err != nil {
		t.Fatal(err)
	}
	meta := audit.UniverseMetadata{Universe: uni}
	keywords := map[string][]string{}
	for _, c := range adnet.PaperCampaigns() {
		keywords[c.ID] = c.Keywords
	}
	f := startShards(t, shards,
		func(i int, st *store.Store) []collector.ServerOption {
			eng, err := streamaudit.New(streamaudit.Config{
				Store:    st,
				Meta:     meta,
				Keywords: keywords,
			})
			if err != nil {
				t.Fatal(err)
			}
			return []collector.ServerOption{collector.WithLiveAudit(eng)}
		})

	r, rsrv := startRouter(t, fastRouterConfig(f.trunkURLs()),
		WithLiveMerge(&shardmerge.Client{Shards: f.baseURLs()},
			streamaudit.StaticConfig{Meta: meta, Keywords: keywords}))
	tiertest.WaitFor(t, "trunks to establish", func() bool { return allTrunksUp(r) })

	// Real campaign IDs and universe publishers, so the live engines
	// fold metadata the same way a production shard would.
	campaigns := adnet.PaperCampaigns()
	client := &beacon.Client{CollectorURL: rsrv.BeaconURL()}
	ctx := context.Background()
	for i := 0; i < sessions; i++ {
		p := beacon.Payload{
			CampaignID: campaigns[i%len(campaigns)].ID,
			CreativeID: fmt.Sprintf("cr-%d", i),
			PageURL:    fmt.Sprintf("http://%s/page", uni.At(i%uni.Len()).Domain),
			UserAgent:  "Mozilla/5.0 Chrome/49.0",
			Nonce:      beacon.NewNonce(),
		}
		if err := client.Report(ctx, p, 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	tiertest.WaitFor(t, "all impressions to land", func() bool { return f.totalLen() == sessions })
	f.assertPlacement(t)

	// The merged export must union exactly the shard stores.
	resp, err := http.Get(fmt.Sprintf("http://%s/api/live/export", rsrv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("merged export status = %d, want 200", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var exp streamaudit.Export
	if err := exp.UnmarshalBinary(body); err != nil {
		t.Fatal(err)
	}
	// Exports are read by routers, not people: served as the raw
	// container, by the router and by each shard.
	shardResp, err := http.Get(f.baseURLs()[0] + shardmerge.ExportPath)
	if err != nil {
		t.Fatal(err)
	}
	defer shardResp.Body.Close()
	shardBody, err := io.ReadAll(shardResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for who, r := range map[string]struct {
		resp *http.Response
		body []byte
	}{"router": {resp, body}, "shard": {shardResp, shardBody}} {
		if ct := r.resp.Header.Get("Content-Type"); ct != "application/octet-stream" || !bytes.HasPrefix(r.body, []byte(streamaudit.ExportMagic)) {
			t.Fatalf("%s serves its export as %q: %.16q", who, ct, r.body)
		}
	}
	eng, err := streamaudit.NewStatic(streamaudit.StaticConfig{Meta: meta, Keywords: keywords}, &exp)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range eng.Summaries() {
		total += s.Impressions
	}
	if total != sessions {
		t.Fatalf("merged export impressions = %d, want %d", total, sessions)
	}

	// And the router's own summary endpoint answers over the same
	// merged state.
	resp2, err := http.Get(fmt.Sprintf("http://%s/api/live/summary", rsrv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("merged summary status = %d, want 200", resp2.StatusCode)
	}
	var sums []streamaudit.CampaignLive
	if err := json.NewDecoder(resp2.Body).Decode(&sums); err != nil {
		t.Fatal(err)
	}
	total = 0
	for _, s := range sums {
		total += s.Impressions
	}
	if total != sessions {
		t.Fatalf("merged summary impressions = %d, want %d", total, sessions)
	}
}
