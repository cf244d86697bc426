package collector

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/daemon"
	"adaudit/internal/faultnet"
	"adaudit/internal/memnet"
	"adaudit/internal/trunk"
	"adaudit/internal/wsproto"
	"adaudit/internal/wsproto/wstest"
)

// The tests here run a real Server, whose accepting front answers clean
// beacon upgrades itself, and hold everything it passes to net/http to
// what the handler alone (under httptest, as at every commit before the
// front existed) does with the same bytes.

// TestFrontRefusalsAreTheHandlers: every refusal comes back from the
// real server as the bytes the handler alone produces, and counts where
// it always counted.
func TestFrontRefusalsAreTheHandlers(t *testing.T) {
	srv, c := newHardenedServer(t, func(c *Collector) { c.cfg.MaxSessions = 1 })
	ref := wstest.HandlerAlone(t, &c.sessions)
	addr := srv.Addr().String()

	upgradeHead, closing, exchange := wstest.UpgradeHead, wstest.Closing, wstest.Exchange
	cases := []struct {
		name, raw, status string
		has               string
	}{
		{"post", closing(strings.Replace(upgradeHead(""), "GET", "POST", 1)), "405 Method Not Allowed", "websocket: method not GET"},
		{"missing key", closing(strings.Replace(upgradeHead(""), "Sec-WebSocket-Key: "+wstest.Key+"\r\n", "", 1)), "400 Bad Request", "missing Sec-WebSocket-Key"},
		{"short key", closing(strings.Replace(upgradeHead(""), wstest.Key, "AAAAAAAAAAAAAAAAAAAA", 1)), "400 Bad Request", "bad Sec-WebSocket-Key"},
		{"version 8", closing(strings.Replace(upgradeHead(""), "Version: 13", "Version: 8", 1)), "426 Upgrade Required", "Sec-Websocket-Version: 13\r\n"},
		{"no upgrade token", closing(strings.Replace(upgradeHead(""), "Upgrade: websocket\r\n", "", 1)), "400 Bad Request", "missing Upgrade: websocket"},
		{"malformed head", "GET /beacon HTTP/1.1\r\nHost: a b\r\n\r\n", "400 Bad Request", "malformed Host header"},
	}
	rejects := c.tel.rejects.With(RejectUpgrade)
	inPlace, netHTTP := c.tel.upgrades.With("in-place"), c.tel.upgrades.With("net-http")
	for _, tc := range cases {
		before := rejects.Load()
		got, want := exchange(t, addr, tc.raw), exchange(t, ref, tc.raw)
		if got != want {
			t.Errorf("%s: through the front\n%q\nfrom the handler alone\n%q", tc.name, got, want)
		}
		if !strings.HasPrefix(got, "HTTP/1.1 "+tc.status) || !strings.Contains(got, tc.has) {
			t.Errorf("%s: answer %q, want a %s mentioning %q", tc.name, got, tc.status, tc.has)
		}
		if counted := rejects.Load() - before; tc.name != "malformed head" && counted != 2 {
			t.Errorf("%s: rejects{upgrade} moved by %d over the two servers, want 2", tc.name, counted)
		}
	}
	if n := inPlace.Load() + netHTTP.Load(); n != 0 {
		t.Fatalf("%d upgrades counted, none was made", n)
	}

	// At the session cap a clean upgrade is not answered in place: the
	// handler sheds it, with its hint and on its counter.
	sess, err := (&beacon.Client{CollectorURL: srv.BeaconURL()}).Open(context.Background(), samplePayload())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	waitFor(t, func() bool { return c.SessionCount() == 1 })
	if got := inPlace.Load(); got != 1 {
		t.Fatalf("upgrades{in-place} = %d after one clean session, want 1", got)
	}
	before := c.tel.sheds.Load()
	got, want := exchange(t, addr, closing(upgradeHead(""))), exchange(t, ref, closing(upgradeHead("")))
	if got != want {
		t.Errorf("shed through the front\n%q\nfrom the handler alone\n%q", got, want)
	}
	if !strings.HasPrefix(got, "HTTP/1.1 503 Service Unavailable\r\n") || !strings.Contains(got, "\r\nRetry-After: 1\r\n") {
		t.Errorf("shed answer %q, want a 503 with Retry-After", got)
	}
	if counted := c.tel.sheds.Load() - before; counted != 2 {
		t.Errorf("sheds moved by %d over the two servers, want 2", counted)
	}
	if n := inPlace.Load() + netHTTP.Load(); n != 1 {
		t.Errorf("%d upgrades counted after a shed, want the 1 from before", n)
	}
}

// TestFrontLeavesPlainHTTPAlone: the sidecar endpoints answer through
// the front, keep-alive included.
func TestFrontLeavesPlainHTTPAlone(t *testing.T) {
	srv, _ := newHardenedServer(t, nil)
	base := "http://" + srv.Addr().String()
	for i := 0; i < 2; i++ { // the second request reuses the connection
		for _, path := range []string{"/healthz", "/metrics", "/api/metrics", "/api/campaigns"} {
			code, body, err := httpGetBody(context.Background(), base+path)
			if err != nil || code != http.StatusOK || body == "" {
				t.Fatalf("GET %s: %d, %d bytes, %v", path, code, len(body), err)
			}
		}
	}
	_, metrics, _ := httpGetBody(context.Background(), base+"/metrics")
	for _, series := range []string{`adaudit_collector_upgrades_total{via="in-place"} 0`, `adaudit_collector_upgrades_total{via="net-http"} 0`} {
		if !strings.Contains(metrics, series) {
			t.Errorf("/metrics lacks %q", series)
		}
	}
}

// rawSession sends head, then the payload as a masked text frame in the
// same write, then a close frame, and waits for the server's close.
func rawSession(t *testing.T, addr, head string, p beacon.Payload) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	wire := wstest.Session(t, head, p.Encode())
	if _, err := nc.Write(wire); err != nil {
		t.Fatal(err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(nc)
	status, err := br.ReadString('\n')
	if err != nil || status != "HTTP/1.1 101 Switching Protocols\r\n" {
		t.Fatalf("status line %q, %v", status, err)
	}
	for line := status; line != "\r\n"; {
		if line, err = br.ReadString('\n'); err != nil {
			t.Fatal(err)
		}
	}
	if f, err := wsproto.ReadFrame(br, 1<<10); err != nil || f.Opcode != wsproto.OpClose {
		t.Fatalf("after the session: frame %+v, %v; want the close echo", f, err)
	}
}

// TestFrontBothPathsCommit: a session whose first frame rides in the
// handshake's segment commits whether the front answers it or — its
// head too long for the pooled buffer — net/http does; each path is
// counted and timed.
func TestFrontBothPathsCommit(t *testing.T) {
	srv, c := newHardenedServer(t, nil)
	addr := srv.Addr().String()
	upgradeCount := func() uint64 { return c.tel.upgrade.Snapshot().Count }
	inPlace, netHTTP := c.tel.upgrades.With("in-place"), c.tel.upgrades.With("net-http")

	p := samplePayload()
	p.Nonce = "front-in-place"
	rawSession(t, addr, wstest.UpgradeHead("Origin: http://www.ciencia123.es\r\n"), p)
	waitFor(t, func() bool { return c.Metrics.Ingested.Load() == 1 })
	if in, via := inPlace.Load(), netHTTP.Load(); in != 1 || via != 0 {
		t.Fatalf("upgrades: %d in place, %d through net/http; want 1, 0", in, via)
	}
	if n := upgradeCount(); n != 1 {
		t.Fatalf("upgrade_seconds observed %d times, want 1", n)
	}

	p.Nonce = "front-net-http"
	rawSession(t, addr, wstest.UpgradeHead("Cookie: "+strings.Repeat("c", 8<<10)+"\r\n"), p)
	waitFor(t, func() bool { return c.Metrics.Ingested.Load() == 2 })
	if in, via := inPlace.Load(), netHTTP.Load(); in != 1 || via != 1 {
		t.Fatalf("upgrades: %d in place, %d through net/http; want 1, 1", in, via)
	}
	if n := upgradeCount(); n != 2 {
		t.Fatalf("upgrade_seconds observed %d times, want 2", n)
	}
	if got := c.Metrics.Connections.Load(); got != 2 {
		t.Fatalf("connections = %d, want 2", got)
	}
	waitFor(t, func() bool { return c.SessionCount() == 0 })

	// The two records differ in what the sessions differed in, no more.
	a, _ := c.cfg.Store.Get(1)
	b, _ := c.cfg.Store.Get(2)
	a.ID, a.Nonce, a.Timestamp, a.Exposure = b.ID, b.Nonce, b.Timestamp, b.Exposure
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("records diverge between the paths:\n in place = %+v\n net/http = %+v", a, b)
	}
}

// TestFrontUpgradeDuringDrain: an upgrade that races shutdown is closed
// going-away, on either path, and leaves no session behind.
func TestFrontUpgradeDuringDrain(t *testing.T) {
	srv, c := newHardenedServer(t, nil)
	c.sessions.Drain(0) // Drain has begun; the listener is still up
	for _, extra := range []string{"", "Cookie: " + strings.Repeat("c", 8<<10) + "\r\n"} {
		nc, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(nc, wstest.UpgradeHead(extra)); err != nil {
			t.Fatal(err)
		}
		_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		br := bufio.NewReader(nc)
		for line := ""; line != "\r\n"; {
			if line, err = br.ReadString('\n'); err != nil {
				t.Fatal(err)
			}
		}
		f, err := wsproto.ReadFrame(br, 1<<10)
		if err != nil || f.Opcode != wsproto.OpClose {
			t.Fatalf("frame %+v, %v; want a close", f, err)
		}
		if code, reason, _ := wsproto.DecodeClosePayload(f.Payload); code != wsproto.CloseGoingAway || reason != "collector shutting down" {
			t.Fatalf("close %d %q, want going-away", code, reason)
		}
		nc.Close()
	}
	waitFor(t, func() bool { return c.SessionCount() == 0 })
	if got := c.Metrics.Ingested.Load() + c.Metrics.Rejected.Load(); got != 0 {
		t.Fatalf("%d sessions ran during drain", got)
	}
}

// readClose reads conn until the server's close arrives and returns it.
func readClose(t *testing.T, conn *wsproto.Conn) *wsproto.CloseError {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		_, _, err := conn.ReadMessage()
		var ce *wsproto.CloseError
		if errors.As(err, &ce) {
			return ce
		}
		if err != nil {
			t.Fatalf("session ended with %v, want a close frame", err)
		}
	}
}

// TestDrainedSessionClosesGoingAway: a session still open when the drain
// begins is told the collector is going away — the close an upgrade that
// races the drain gets — not a protocol error, and its impression still
// commits, ended by the drain.
func TestDrainedSessionClosesGoingAway(t *testing.T) {
	srv, c := newHardenedServer(t, nil)
	conn, _, err := (&wsproto.Dialer{}).Dial(context.Background(), srv.BeaconURL())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.NetConn().Close()
	if err := conn.WriteText(samplePayload().Encode()); err != nil {
		t.Fatal(err)
	}
	// A counted update proves the session is past its payload.
	if err := conn.WriteText(beacon.EncodeEventUpdate(beacon.Event{Kind: beacon.EventClick, At: time.Millisecond})); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c.Metrics.Events.Load() == 1 })

	drained := make(chan int, 1)
	go func() { drained <- c.sessions.Drain(5 * time.Second) }()
	if ce := readClose(t, conn); ce.Code != wsproto.CloseGoingAway || ce.Reason != "collector shutting down" {
		t.Fatalf("drained session closed %d %q, want going-away", ce.Code, ce.Reason)
	}
	if left := <-drained; left != 0 {
		t.Fatalf("drain left %d sessions open", left)
	}
	if n := c.Metrics.Ingested.Load(); n != 1 {
		t.Fatalf("ingested = %d, want the drained session's impression", n)
	}
	if n := c.tel.sessionsClosed.With(beacon.EndDrain).Load(); n != 1 {
		t.Fatalf("sessions_closed{drain} = %d, want 1", n)
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
	p := samplePayload()
	p.Nonce = "stalled-trunk"
	batch := trunk.AppendFrame(nil, trunk.Frame{Type: trunk.Hello, Version: trunk.Version, GatewayID: "gw"})
	batch = trunk.AppendFrame(batch, trunk.Frame{Type: trunk.Commit, Stream: 1, RemoteIP: "203.0.113.9",
		Exposure: time.Second, Payload: string(p.EncodeBinary())})
	if err := tr.WriteMessage(wsproto.OpBinary, batch); err != nil {
		t.Fatal(err)
	}
	// Ingested, so its ack is being written to a peer that never reads.
	waitFor(t, func() bool { return c.Metrics.Ingested.Load() == 1 })

	conn, _, err := dialer.Dial(context.Background(), srv.BeaconURL())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.NetConn().Close()
	for _, msg := range []string{samplePayload().Encode(), beacon.EncodeEventUpdate(beacon.Event{Kind: beacon.EventClick, At: time.Millisecond})} {
		if err := conn.WriteText(msg); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return c.Metrics.Events.Load() == 1 })

	drained := make(chan int, 1)
	go func() { drained <- c.sessions.Drain(time.Second) }()
	if ce := readClose(t, conn); ce.Code != wsproto.CloseGoingAway || ce.Reason != "collector shutting down" {
		t.Fatalf("drained session closed %d %q, want going-away", ce.Code, ce.Reason)
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
	waitFor(t, func() bool { return c.SessionCount() == 0 })
}

// TestUnparseablePeerIsNeverAcked: a session whose peer address does not
// parse would commit a record without one, so it is closed with a policy
// violation before anything is stored, and counted as a peer-addr
// reject — as at the edge.
func TestUnparseablePeerIsNeverAcked(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, c := newHardenedServer(t, nil, daemon.WithListener(wstest.AddrlessListener(ln)))
	conn, _, err := (&wsproto.Dialer{}).Dial(context.Background(), srv.BeaconURL())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.NetConn().Close()
	_ = conn.WriteText(samplePayload().Encode())
	if ce := readClose(t, conn); ce.Code != wsproto.ClosePolicyViolation || ce.Reason != "bad peer address" {
		t.Fatalf("close %d %q, want a policy violation, not an ack", ce.Code, ce.Reason)
	}
	waitFor(t, func() bool { return c.SessionCount() == 0 })
	if n := c.tel.rejects.With(RejectPeerAddr).Load(); n != 1 {
		t.Fatalf("rejects{peer-addr} = %d, want 1", n)
	}
	if n := c.cfg.Store.Len(); n != 0 {
		t.Fatalf("stored %d impressions, want 0", n)
	}
}

// TestShutdownWithConnectionMidHead: a connection parked in its request
// head (10 s of deadline left) does not hold shutdown up.
func TestShutdownWithConnectionMidHead(t *testing.T) {
	c, _ := testCollector(t)
	srv, err := NewServer(c, "127.0.0.1:0", daemon.WithDrainGrace(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx) }()

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := io.WriteString(nc, "GET /beacon HTTP/1.1\r\nHost: coll"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the front take it up
	start := time.Now()
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve still running 5 s after shutdown began")
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("shutdown took %v with one connection mid-head", took)
	}
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := nc.Read(make([]byte, 1)); err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("read %d, %v from the parked connection; want it closed", n, err)
	}
	if _, err := net.DialTimeout("tcp", srv.Addr().String(), time.Second); err == nil {
		t.Fatal("the listener is still accepting after shutdown")
	}
}

// TestCloseWithoutServe: a server that never served gives its port
// back.
func TestCloseWithoutServe(t *testing.T) {
	c, _ := testCollector(t)
	srv, err := NewServer(c, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := net.DialTimeout("tcp", srv.Addr().String(), time.Second); err == nil {
		t.Fatal("the listener is still accepting after Close")
	}
}

// TestWithListenerStillInjectsFaults: connections of a listener handed
// in through WithListener keep their wrapping on the in-place path —
// a plan that resets every write kills the 101, and nothing is
// committed or left tracked.
func TestWithListenerStillInjectsFaults(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	plan := &faultnet.Plan{Seed: 7, ResetWriteProb: 1}
	c, _ := testCollector(t)
	srv, err := NewServer(c, "", daemon.WithListener(plan.Listen(ln)))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.Serve(ctx)

	dialCtx, cancelDial := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelDial()
	if conn, _, err := (&wsproto.Dialer{}).Dial(dialCtx, srv.BeaconURL()); err == nil {
		conn.Close(wsproto.CloseNormal, "")
		t.Fatal("handshake completed over a listener that resets every write")
	}
	if resets, _, _, _ := plan.Stats(); resets == 0 {
		t.Fatal("the plan injected nothing: the front lost the listener's wrapping")
	}
	if n := c.Metrics.Connections.Load(); n != 0 || c.SessionCount() != 0 {
		t.Fatalf("connections = %d, sessions = %d; want none", n, c.SessionCount())
	}
}
