package router

import (
	"context"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/collector/collectortest"
	"adaudit/internal/daemon"
	"adaudit/internal/memnet"
	"adaudit/internal/shardmerge"
	"adaudit/internal/store"
	"adaudit/internal/tiertest"
	"adaudit/internal/trunk"
	"adaudit/internal/wsproto"
)

// payloadOn returns tiertest.Payload(i) re-drawn until its nonce hashes
// to shard of shards.
func payloadOn(i, shard, shards int) beacon.Payload {
	for {
		if p := tiertest.Payload(i); shardmerge.ShardFor(p.Nonce, shards) == shard {
			return p
		}
	}
}

// relayedCommit is the Commit frame a gateway sends for p on stream.
func relayedCommit(stream uint64, p beacon.Payload) []byte {
	return trunk.AppendFrame(nil, trunk.Frame{
		Type: trunk.Commit, Stream: stream, RemoteIP: "203.0.113.9",
		ConnectedAt: time.Now().UnixNano(), Exposure: time.Second,
		Payload: string(p.EncodeBinary()),
	})
}

// dialRelay opens a gateway trunk into the router at url and sends its
// Hello; the cleanup closes it.
func dialRelay(t *testing.T, url string, netDial func(ctx context.Context, network, addr string) (net.Conn, error)) *wsproto.Conn {
	t.Helper()
	d := &wsproto.Dialer{NetDial: netDial, Header: http.Header{trunk.TokenHeader: {collectortest.TrunkToken}}}
	gw, _, err := d.Dial(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = gw.NetConn().Close() })
	hello := trunk.AppendFrame(nil, trunk.Frame{Type: trunk.Hello, Version: trunk.Version, GatewayID: "gw-" + t.Name()})
	if err := gw.WriteMessage(wsproto.OpBinary, hello); err != nil {
		t.Fatal(err)
	}
	return gw
}

// relaysHeld is the number of return paths the router keeps.
func relaysHeld(r *Router) int {
	r.relayMu.Lock()
	defer r.relayMu.Unlock()
	return len(r.relays)
}

// TestRelayRefusesNonceLessCommit: the first hop sets every nonce, so a
// relayed commit without one is rejected, not given a nonce minted here
// — one that a replay after a lost answer would get afresh, counting the
// impression twice. The router's answer to the first copy is lost on a
// stalled trunk; the replay on a new trunk is rejected too, and nothing
// is stored. At the parent commit each copy got its own nonce: two
// records and an ack.
func TestRelayRefusesNonceLessCommit(t *testing.T) {
	f := startShards(t, 1, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stalls := &stallListener{Listener: ln, accepted: make(chan *stallConn, 8)}
	r, rsrv := startRouter(t, fastRouterConfig(f.trunkURLs()), daemon.WithListener(stalls))
	tiertest.WaitFor(t, "shard trunks to establish", func() bool { return allTrunksUp(r) })

	p := tiertest.Payload(0)
	p.Nonce = ""
	commit := relayedCommit(1, p)

	lost := dialRelay(t, trunkURL(rsrv), nil)
	leg := <-stalls.accepted // the router's end of this trunk
	t.Cleanup(func() { _ = leg.Close() })
	leg.stalled.Store(true)
	if err := lost.WriteMessage(wsproto.OpBinary, commit); err != nil {
		t.Fatal(err)
	}
	tiertest.WaitFor(t, "the answer's write to fail and close the trunk", func() bool {
		return seriesSum(r, "adaudit_router_relay_frames_total") == 2 &&
			seriesSum(r, "adaudit_router_relay_trunks_active") == 0
	})

	gw := dialRelay(t, trunkURL(rsrv), nil)
	if err := gw.WriteMessage(wsproto.OpBinary, commit); err != nil {
		t.Fatal(err)
	}
	_ = gw.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, msg, err := gw.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if replies, err := trunk.DecodeBatch(msg); err != nil || len(replies) != 1 || replies[0].Type != trunk.Reject || replies[0].Stream != 1 {
		t.Fatalf("the replay was answered %+v (err %v), want a reject of stream 1", replies, err)
	}
	// An ack would have come from the shard; give a stray one time to land.
	time.Sleep(100 * time.Millisecond)
	if n := f.totalLen(); n != 0 {
		t.Fatalf("the shard holds %d records of a nonce-less commit, want 0", n)
	}
	if n := seriesSum(r, "adaudit_router_commits_total"); n != 0 {
		t.Fatalf("commits_total = %v, want 0", n)
	}
}

// TestRelayDuringShardOutageHoldsNothing: 100 commits relayed toward a
// dead shard are the gateway's to hold, so the router's spill stays
// empty and a direct beacon session bound for the healthy shard is
// admitted under a SpillLimit of 4. At the parent commit the router
// spilled all 100 and shed that session with 503.
func TestRelayDuringShardOutageHoldsNothing(t *testing.T) {
	nw := &memnet.Network{Buffer: 64 << 10}
	st1 := store.New()
	ln1, err := nw.Listen("shard1:80")
	if err != nil {
		t.Fatal(err)
	}
	collectortest.Serve(t, st1, ln1, nil)
	cfg := fastRouterConfig([]string{"ws://shard0:80/trunk", "ws://shard1:80/trunk"})
	cfg.Dialer = wsproto.Dialer{NetDial: nw.Dial}
	cfg.SpillLimit = 4
	ln, err := nw.Listen("router:80")
	if err != nil {
		t.Fatal(err)
	}
	r, rsrv := startRouter(t, cfg, daemon.WithListener(ln))
	tiertest.WaitFor(t, "shard 1's trunks to establish", func() bool {
		ph := r.Health().Pools[1]
		return ph.TrunksHealthy == ph.TrunksTotal
	})

	const relayed = 100
	var batch []byte
	for i := 0; i < relayed; i++ {
		batch = append(batch, relayedCommit(uint64(i+1), payloadOn(i, 0, 2))...)
	}
	gw := dialRelay(t, trunkURL(rsrv), nw.Dial)
	if err := gw.WriteMessage(wsproto.OpBinary, batch); err != nil {
		t.Fatal(err)
	}
	tiertest.WaitFor(t, "the router to read every relayed commit", func() bool {
		if n := r.Health().SpillPending; n != 0 {
			t.Fatalf("the router spilled %d relayed commits, want 0", n)
		}
		return seriesSum(r, "adaudit_router_relay_frames_total") == relayed+1
	})
	if n := r.Health().SpillPending; n != 0 {
		t.Fatalf("the router spilled %d relayed commits, want 0", n)
	}

	client := &beacon.Client{CollectorURL: rsrv.BeaconURL(), Dialer: wsproto.Dialer{NetDial: nw.Dial}, MaxAttempts: 1}
	if err := client.Report(context.Background(), payloadOn(relayed, 1, 2), 10*time.Millisecond); err != nil {
		t.Fatalf("a direct session bound for the healthy shard: %v", err)
	}
	tiertest.WaitFor(t, "the direct session's record on shard 1", func() bool { return st1.Len() == 1 })
	if n := seriesSum(r, "adaudit_router_sheds_total"); n != 0 {
		t.Fatalf("sheds_total = %v, want 0", n)
	}
}

// TestRelayDropsAreCounted: during the outage of
// TestRelayDuringShardOutageHoldsNothing every one of the 100 commits
// relayed toward the dead shard is dropped for the gateway to replay —
// the first when no trunk takes it, the rest behind it in the same
// batch at once — and adaudit_router_relay_drops_total counts each.
func TestRelayDropsAreCounted(t *testing.T) {
	nw := &memnet.Network{Buffer: 64 << 10}
	ln1, err := nw.Listen("shard1:80")
	if err != nil {
		t.Fatal(err)
	}
	st1 := store.New()
	collectortest.Serve(t, st1, ln1, nil)
	cfg := fastRouterConfig([]string{"ws://shard0:80/trunk", "ws://shard1:80/trunk"})
	cfg.Dialer = wsproto.Dialer{NetDial: nw.Dial}
	ln, err := nw.Listen("router:80")
	if err != nil {
		t.Fatal(err)
	}
	r, rsrv := startRouter(t, cfg, daemon.WithListener(ln))
	tiertest.WaitFor(t, "shard 1's trunks to establish", func() bool {
		ph := r.Health().Pools[1]
		return ph.TrunksHealthy == ph.TrunksTotal
	})
	if n := seriesSum(r, "adaudit_router_relay_drops_total"); n != 0 {
		t.Fatalf("relay_drops_total = %v before any relay, want 0", n)
	}

	const relayed = 100
	var batch []byte
	for i := 0; i < relayed; i++ {
		batch = append(batch, relayedCommit(uint64(i+1), payloadOn(i, 0, 2))...)
	}
	gw := dialRelay(t, trunkURL(rsrv), nw.Dial)
	if err := gw.WriteMessage(wsproto.OpBinary, batch); err != nil {
		t.Fatal(err)
	}
	tiertest.WaitFor(t, "every relayed commit counted as dropped", func() bool {
		return seriesSum(r, "adaudit_router_relay_drops_total") == relayed
	})
	if n := relaysHeld(r); n != 0 {
		t.Fatalf("the router holds %d return paths of dropped commits, want 0", n)
	}
	// A commit bound for the healthy shard is relayed, not dropped.
	if err := gw.WriteMessage(wsproto.OpBinary, relayedCommit(relayed+1, payloadOn(relayed, 1, 2))); err != nil {
		t.Fatal(err)
	}
	tiertest.WaitFor(t, "the healthy shard's commit stored", func() bool { return st1.Len() == 1 })
	if n := seriesSum(r, "adaudit_router_relay_drops_total"); n != relayed {
		t.Fatalf("relay_drops_total = %v, want %d", n, relayed)
	}
}

// TestRelayReturnPathIsBounded: the router keeps a relayed commit's
// return path only until its shard answers or AckTimeout passes, and
// one relayed write waits at most AckTimeout on a shard that stopped
// reading.
func TestRelayReturnPathIsBounded(t *testing.T) {
	// serveFake serves trunks on addr: each reads its Hello, then every
	// later batch and answers none (stall: reads nothing more).
	serveFake := func(t *testing.T, nw *memnet.Network, addr string, stall bool) *atomic.Int32 {
		ln, err := nw.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		var accepts atomic.Int32
		done := make(chan struct{})
		srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			conn, err := (&wsproto.Upgrader{MaxMessageSize: trunk.MaxMessage}).Upgrade(w, req)
			if err != nil {
				return
			}
			accepts.Add(1)
			if !stall {
				_, _ = (&trunk.Receiver{HandshakeTimeout: time.Second}).Serve(conn,
					func(_ *trunk.Peer, _ trunk.Frame, reply []byte) []byte { return reply })
				return
			}
			defer conn.NetConn().Close()
			if _, _, err := conn.ReadMessage(); err == nil {
				<-done
			}
		})}
		go func() { _ = srv.Serve(ln) }()
		t.Cleanup(func() {
			close(done)
			_ = srv.Close()
		})
		return &accepts
	}
	startShard1 := func(t *testing.T, nw *memnet.Network) *store.Store {
		st := store.New()
		ln, err := nw.Listen("shard1:80")
		if err != nil {
			t.Fatal(err)
		}
		collectortest.Serve(t, st, ln, nil)
		return st
	}

	t.Run("unanswered", func(t *testing.T) {
		nw := &memnet.Network{Buffer: 64 << 10}
		serveFake(t, nw, "shard0:80", false)
		st1 := startShard1(t, nw)
		cfg := fastRouterConfig([]string{"ws://shard0:80/trunk", "ws://shard1:80/trunk"})
		cfg.Dialer = wsproto.Dialer{NetDial: nw.Dial}
		r, rsrv := startRouter(t, cfg)
		tiertest.WaitFor(t, "shard trunks to establish", func() bool { return allTrunksUp(r) })

		const silent = 20
		var batch []byte
		for i := 0; i < silent; i++ {
			batch = append(batch, relayedCommit(uint64(i+1), payloadOn(i, 0, 2))...)
		}
		gw := dialRelay(t, trunkURL(rsrv), nil)
		if err := gw.WriteMessage(wsproto.OpBinary, batch); err != nil {
			t.Fatal(err)
		}
		tiertest.WaitFor(t, "every commit's return path", func() bool { return relaysHeld(r) == silent })
		forwarded := time.Now()

		// Traffic to the answering shard drives the relay path, which is
		// where expired return paths are swept.
		deadline := forwarded.Add(cfg.AckTimeout + cfg.ReplayInterval + 150*time.Millisecond)
		stream := uint64(1000)
		for relaysHeld(r) != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%d return paths held %v after the last forward, want 0 within AckTimeout + ReplayInterval",
					relaysHeld(r), time.Since(forwarded))
			}
			stream++
			if err := gw.WriteMessage(wsproto.OpBinary, relayedCommit(stream, payloadOn(int(stream), 1, 2))); err != nil {
				t.Fatal(err)
			}
			time.Sleep(10 * time.Millisecond)
		}
		tiertest.WaitFor(t, "every answered commit stored", func() bool { return st1.Len() == int(stream-1000) })
	})

	t.Run("stalled_shard", func(t *testing.T) {
		// Shard 0's network has no buffer: once its reader stops, a write
		// to it waits out its deadline.
		stallNet, nw := &memnet.Network{}, &memnet.Network{Buffer: 64 << 10}
		accepts := serveFake(t, stallNet, "shard0:80", true)
		st1 := startShard1(t, nw)
		cfg := fastRouterConfig([]string{"ws://shard0:80/trunk", "ws://shard1:80/trunk"})
		cfg.TrunksPerShard = 2
		cfg.KeepAliveInterval = -1 // only the write deadline may free the trunk
		cfg.Dialer = wsproto.Dialer{NetDial: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if addr == "shard0:80" {
				return stallNet.Dial(ctx, network, addr)
			}
			return nw.Dial(ctx, network, addr)
		}}
		r, rsrv := startRouter(t, cfg)
		tiertest.WaitFor(t, "shard trunks to establish", func() bool { return allTrunksUp(r) })

		gw := dialRelay(t, trunkURL(rsrv), nil)
		batch := append(relayedCommit(1, payloadOn(0, 0, 2)), relayedCommit(2, payloadOn(1, 1, 2))...)
		sent := time.Now()
		if err := gw.WriteMessage(wsproto.OpBinary, batch); err != nil {
			t.Fatal(err)
		}
		tiertest.WaitFor(t, "shard 1's commit stored", func() bool { return st1.Len() == 1 })
		if took, bound := time.Since(sent), cfg.AckTimeout+150*time.Millisecond; took > bound {
			t.Fatalf("shard 1's commit was stored %v after the batch, want within %v", took, bound)
		}
		tiertest.WaitFor(t, "the stalled trunk to be closed and redialed", func() bool {
			return accepts.Load() > int32(cfg.TrunksPerShard)
		})
	})

	t.Run("stalled_shard_twice", func(t *testing.T) {
		// Two commits to the stalled shard ahead of one to the other: the
		// first write waits out its deadline, and the second, bound for
		// the pool's other trunk, stalled just the same, is dropped at
		// once for the gateway to replay.
		stallNet, nw := &memnet.Network{}, &memnet.Network{Buffer: 64 << 10}
		serveFake(t, stallNet, "shard0:80", true)
		st1 := startShard1(t, nw)
		cfg := fastRouterConfig([]string{"ws://shard0:80/trunk", "ws://shard1:80/trunk"})
		cfg.TrunksPerShard = 2
		cfg.KeepAliveInterval = -1
		cfg.Dialer = wsproto.Dialer{NetDial: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if addr == "shard0:80" {
				return stallNet.Dial(ctx, network, addr)
			}
			return nw.Dial(ctx, network, addr)
		}}
		r, rsrv := startRouter(t, cfg)
		tiertest.WaitFor(t, "shard trunks to establish", func() bool { return allTrunksUp(r) })

		gw := dialRelay(t, trunkURL(rsrv), nil)
		batch := append(relayedCommit(1, payloadOn(0, 0, 2)), relayedCommit(2, payloadOn(1, 0, 2))...)
		batch = append(batch, relayedCommit(3, payloadOn(2, 1, 2))...)
		sent := time.Now()
		if err := gw.WriteMessage(wsproto.OpBinary, batch); err != nil {
			t.Fatal(err)
		}
		tiertest.WaitFor(t, "shard 1's commit stored", func() bool { return st1.Len() == 1 })
		if took, bound := time.Since(sent), cfg.AckTimeout+150*time.Millisecond; took > bound {
			t.Fatalf("shard 1's commit was stored %v after the batch, want within %v", took, bound)
		}
	})
}
