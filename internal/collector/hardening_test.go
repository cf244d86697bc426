package collector

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/daemon"
	"adaudit/internal/memnet"
	"adaudit/internal/tiertest"
	"adaudit/internal/trunk"
	"adaudit/internal/wsproto"
)

// newHardenedServer boots a full Server around a testCollector with the
// given config tweaks and server options applied.
func newHardenedServer(t *testing.T, tweak func(*Collector), opts ...ServerOption) (*Server, *Collector) {
	t.Helper()
	c, _ := testCollector(t)
	if tweak != nil {
		tweak(c)
	}
	return serve(t, c, opts...), c
}

// serve serves c until the test ends.
func serve(t *testing.T, c *Collector, opts ...ServerOption) *Server {
	t.Helper()
	srv, err := NewServer(c, "127.0.0.1:0", opts...)
	if err != nil {
		t.Fatal(err)
	}
	tiertest.Serve(t, srv)
	return srv
}

func TestIngestDedupsByNonce(t *testing.T) {
	c, st := testCollector(t)
	obs := testObservation(t, c)
	obs.Payload.Nonce = "imp-nonce-1"
	id, err := c.Ingest(obs)
	if err != nil {
		t.Fatal(err)
	}

	// The beacon reconnects: same nonce, the second connection's share
	// of the exposure and fresh interactions.
	resumed := obs
	resumed.Payload.Events = []beacon.Event{{Kind: beacon.EventClick, At: time.Second}}
	resumed.Exposure = 1500 * time.Millisecond
	id2, err := c.Ingest(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id {
		t.Fatalf("resumed ingest returned id %d, want original %d", id2, id)
	}
	if st.Len() != 1 {
		t.Fatalf("store holds %d records, want 1 (deduplicated)", st.Len())
	}
	im, _ := st.Get(id)
	if im.Exposure != 4000*time.Millisecond {
		t.Fatalf("merged exposure = %v, want 4s (2.5s + 1.5s)", im.Exposure)
	}
	if im.MouseMoves != 2 || im.Clicks != 2 {
		t.Fatalf("merged interactions = %d moves, %d clicks; want 2/2", im.MouseMoves, im.Clicks)
	}
	if got := c.tel.dedupHits.Load(); got != 1 {
		t.Fatalf("dedup hits = %d, want 1", got)
	}
	if got := c.Metrics.Ingested.Load(); got != 1 {
		t.Fatalf("ingested = %d, want 1 (merge is not a new impression)", got)
	}

	// A different nonce is a different impression.
	other := obs
	other.Payload.Nonce = "imp-nonce-2"
	if _, err := c.Ingest(other); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 2 {
		t.Fatalf("store holds %d records, want 2", st.Len())
	}
}

func TestNonceSeededFromRecoveredStore(t *testing.T) {
	// A collector built over a store that already holds a nonced record
	// (recovered from snapshot + WAL after a restart) must merge a
	// late-retrying beacon instead of double-counting it.
	c, st := testCollector(t)
	obs := testObservation(t, c)
	obs.Payload.Nonce = "pre-restart-nonce"
	id, err := c.Ingest(obs)
	if err != nil {
		t.Fatal(err)
	}

	c2, err := New(Config{
		Store:      st,
		Anonymizer: c.cfg.Anonymizer,
	})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := c2.Ingest(obs)
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id || st.Len() != 1 {
		t.Fatalf("post-restart ingest: id=%d len=%d, want id=%d len=1", id2, st.Len(), id)
	}
}

func TestNonceCacheRotatesGenerations(t *testing.T) {
	c, _ := testCollector(t)
	for i := 0; i < nonceCacheLimit+10; i++ {
		c.nonceRecord(fmt.Sprintf("n-%d", i), int64(i+1))
	}
	// Entries in BOTH generations resolve (internal/gen2's own test pins
	// the rotation point).
	if _, ok := c.nonceLookup("n-0"); !ok {
		t.Fatal("previous-generation nonce forgotten")
	}
	if _, ok := c.nonceLookup(fmt.Sprintf("n-%d", nonceCacheLimit+5)); !ok {
		t.Fatal("current-generation nonce missing")
	}
}

func TestAbnormalCloseStillCommitsPartialExposure(t *testing.T) {
	srv, c := newHardenedServer(t, nil)

	// Dial raw so the transport can be killed with no close frame — a
	// crashed browser, a NAT binding expiring.
	d := &wsproto.Dialer{}
	conn, _, err := d.Dial(context.Background(), srv.BeaconURL())
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteText(tiertest.Payload(0).Encode()); err != nil {
		t.Fatal(err)
	}
	tiertest.WaitFor(t, "the session to be tracked", func() bool { return c.SessionCount() == 1 })
	_ = conn.NetConn().Close()
	// The partial commit is counted after the ingest returns.
	tiertest.WaitFor(t, "the partial commit", func() bool { return c.tel.partialCommits.Load() == 1 })
	if got := c.Metrics.Ingested.Load(); got != 1 {
		t.Fatalf("ingested = %d, want 1", got)
	}
	// A clean close is NOT a partial commit.
	cl := &beacon.Client{CollectorURL: srv.BeaconURL()}
	if err := cl.Report(context.Background(), tiertest.Payload(0), 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	tiertest.WaitFor(t, "the second impression", func() bool { return c.Metrics.Ingested.Load() == 2 })
	if got := c.tel.partialCommits.Load(); got != 1 {
		t.Fatalf("partial commits after clean close = %d, want still 1", got)
	}
}

// TestRemoteAddrFastPathMatchesStringParse: taking a *net.TCPAddr's
// binary address yields exactly what parsing its String() does —
// unmapped, zone kept — and anything else still goes through the parse.
func TestRemoteAddrFastPathMatchesStringParse(t *testing.T) {
	for _, tcp := range []*net.TCPAddr{
		{IP: net.IPv4(203, 0, 113, 9), Port: 4242},          // 16-byte form of a v4 address
		{IP: net.IPv4(203, 0, 113, 9).To4(), Port: 4242},    // 4-byte form
		{IP: net.ParseIP("::ffff:198.51.100.7"), Port: 80},  // v4-mapped
		{IP: net.ParseIP("2001:db8::1"), Port: 443},         // v6
		{IP: net.ParseIP("fe80::1"), Zone: "eth0", Port: 1}, // zoned
		{IP: net.IPv4(127, 0, 0, 1), Port: 0},
		{Port: 9}, // no IP at all
	} {
		got, gotErr := wsproto.PeerAddr(tcp)
		want, wantErr := wsproto.PeerAddr(&net.UnixAddr{Name: tcp.String(), Net: "tcp"})
		if got != want || (gotErr == nil) != (wantErr == nil) {
			t.Errorf("%v: fast path (%v, %v), string parse (%v, %v)", tcp, got, gotErr, want, wantErr)
		}
		if gotErr == nil && got.Is4In6() {
			t.Errorf("%v: %v left mapped", tcp, got)
		}
	}
	if _, err := wsproto.PeerAddr(&net.UnixAddr{Name: "pipe", Net: "tcp"}); err == nil {
		t.Error("an unparseable wrapped address was accepted")
	}
}

// TestDrainPastAStalledTrunk: a gateway that sends a commit and then
// stops reading leaves the collector's ack stuck on its trunk. The drain
// still closes a beacon session going-away and commits it, and returns
// when its grace runs out, counting the trunk as still open.
func TestDrainPastAStalledTrunk(t *testing.T) {
	var nw memnet.Network // unbuffered: a write blocks until the far end reads it
	ln, err := nw.Listen("collector:80")
	if err != nil {
		t.Fatal(err)
	}
	srv, c := newHardenedServer(t, nil, daemon.WithListener(ln))
	dialer := &wsproto.Dialer{NetDial: nw.Dial}
	tr, _, err := dialer.Dial(context.Background(), "ws://"+srv.Addr().String()+"/trunk")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.NetConn().Close()
	p := tiertest.Payload(0)
	p.Nonce = "stalled-trunk"
	batch := trunk.AppendFrame(nil, trunk.Frame{Type: trunk.Hello, Version: trunk.Version, GatewayID: "gw"})
	batch = trunk.AppendFrame(batch, trunk.Frame{Type: trunk.Commit, Stream: 1, RemoteIP: "203.0.113.9",
		Exposure: time.Second, Payload: string(p.EncodeBinary())})
	if err := tr.WriteMessage(wsproto.OpBinary, batch); err != nil {
		t.Fatal(err)
	}
	// Ingested, and its ack's bytes sit unread: the reply is stuck on a
	// peer that never reads, holding the trunk's write side.
	tiertest.WaitFor(t, "the trunk's commit", func() bool { return c.Metrics.Ingested.Load() == 1 })
	tiertest.WaitFor(t, "the ack to stall", func() bool { return !nw.Idle() })

	conn, _, err := dialer.Dial(context.Background(), srv.BeaconURL())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.NetConn().Close()
	for _, msg := range []string{tiertest.Payload(0).Encode(), beacon.EncodeEventUpdate(beacon.Event{Kind: beacon.EventClick, At: time.Millisecond})} {
		if err := conn.WriteText(msg); err != nil {
			t.Fatal(err)
		}
	}
	tiertest.WaitFor(t, "the update to be counted", func() bool { return c.Metrics.Events.Load() == 1 })

	drained := make(chan int, 1)
	go func() { drained <- c.sessions.Drain(time.Second) }()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, _, err = conn.ReadMessage()
	if ce, _ := err.(*wsproto.CloseError); ce == nil || *ce != (wsproto.CloseError{Code: wsproto.CloseGoingAway, Reason: "collector shutting down"}) {
		t.Fatalf("drained session ended with %v, want going-away", err)
	}
	select {
	case left := <-drained:
		if left != 1 {
			t.Fatalf("drain left %d connections open, want the stalled trunk", left)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain still running 5 s into a 1 s grace")
	}
	if n := c.Metrics.Ingested.Load(); n != 2 {
		t.Fatalf("ingested = %d, want the trunk's commit and the drained session's", n)
	}
	tiertest.WaitFor(t, "no session", func() bool { return c.SessionCount() == 0 })
}
