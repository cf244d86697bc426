package beacon

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaudit/internal/memnet"
	"adaudit/internal/simclock"
	"adaudit/internal/telemetry"
	"adaudit/internal/wsproto"
)

// virtualConn is a server transport whose read deadline runs on a
// virtual clock: it expires when the clock is advanced past it, not when
// real time passes it. Write deadlines stay real; the clock starts at
// the real present, so the ones Server sets from it are real-future.
type virtualConn struct {
	net.Conn
	clk      *simclock.Virtual
	mu       sync.Mutex
	deadline time.Time
}

func (c *virtualConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deadline = t
	return c.arm()
}

func (c *virtualConn) SetDeadline(t time.Time) error {
	if err := c.SetReadDeadline(t); err != nil {
		return err
	}
	return c.Conn.SetWriteDeadline(t)
}

// arm sets the transport's real deadline: none while the virtual one is
// unset or ahead of the clock, the distant past once the clock reaches
// it. The caller holds mu.
func (c *virtualConn) arm() error {
	if !c.deadline.IsZero() && !c.clk.Now().Before(c.deadline) {
		return c.Conn.SetReadDeadline(time.Unix(1, 0))
	}
	return c.Conn.SetReadDeadline(time.Time{})
}

func (c *virtualConn) readDeadline() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deadline
}

// served is what a session came to: Open's error, or Run's verdict.
type served struct {
	sess     *ServerSession
	err      error
	end      string
	exposure time.Duration
}

// sessionRig is one beacon session between a raw client connection and
// a Server whose clock the test advances.
type sessionRig struct {
	t      *testing.T
	clk    *simclock.Virtual
	start  time.Time
	srv    *Server
	conn   chan *virtualConn
	server *virtualConn
	client *wsproto.Conn
	pings  atomic.Int64
	done   chan served
}

func newSessionRig(t *testing.T, keepAlive, maxExposure time.Duration) *sessionRig {
	t.Helper()
	r := &sessionRig{
		t:     t,
		start: time.Now(),
		conn:  make(chan *virtualConn, 1),
		done:  make(chan served, 1),
	}
	r.clk = simclock.NewVirtual(r.start)
	r.srv = &Server{
		Clock:             r.clk,
		HandshakeTimeout:  10 * time.Second,
		KeepAliveInterval: keepAlive,
		MaxExposure:       maxExposure,
		Events:            new(telemetry.Counter),
	}
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		conn, err := (&wsproto.Upgrader{MaxMessageSize: 1 << 20}).Upgrade(w, req)
		if err != nil {
			return
		}
		defer conn.Close(wsproto.CloseNormal, "")
		sess, err := r.srv.Open(conn)
		if err != nil {
			r.done <- served{err: err}
			return
		}
		end, exposure := sess.Run(nil)
		r.done <- served{sess: sess, end: end, exposure: exposure}
	}))
	ts.Listener = virtualListener{ts.Listener, r}
	ts.Start()
	t.Cleanup(ts.Close)
	client, _, err := (&wsproto.Dialer{}).Dial(context.Background(), "ws"+strings.TrimPrefix(ts.URL, "http"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.NetConn().Close() })
	client.SetPingHandler(func([]byte) { r.pings.Add(1) })
	r.client, r.server = client, <-r.conn
	return r
}

type virtualListener struct {
	net.Listener
	r *sessionRig
}

func (l virtualListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	c := &virtualConn{Conn: nc, clk: l.r.clk}
	l.r.conn <- c
	return c, nil
}

// advance moves the session's clock by d and lets any read deadline it
// passed expire.
func (r *sessionRig) advance(d time.Duration) {
	r.clk.Advance(d)
	r.server.mu.Lock()
	defer r.server.mu.Unlock()
	_ = r.server.arm()
}

func (r *sessionRig) write(op wsproto.Opcode, msg []byte) {
	r.t.Helper()
	if err := r.client.WriteMessage(op, msg); err != nil {
		r.t.Fatal(err)
	}
}

// open sends the payload and one update, and waits for the update to be
// counted: the session is then in Run, its deadline and pinger set from
// the start time.
func (r *sessionRig) open() {
	r.t.Helper()
	r.write(wsproto.OpText, []byte(Payload{
		CampaignID: "srv", CreativeID: "cr", PageURL: "http://pub.example/", UserAgent: "UA",
	}.Encode()))
	r.update(1)
}

// update sends a click and waits for the Events counter to read want.
func (r *sessionRig) update(want int64) {
	r.t.Helper()
	r.write(wsproto.OpText, []byte(EncodeEventUpdate(Event{Kind: EventClick, At: time.Second})))
	r.waitFor("the update to be counted", func() bool { return r.srv.Events.Load() == want })
}

// answer makes the client read, and so pong every ping, like a browser.
func (r *sessionRig) answer() {
	go func() {
		for {
			if _, _, err := r.client.ReadMessage(); err != nil {
				return
			}
		}
	}()
}

func (r *sessionRig) waitFor(what string, cond func() bool) {
	r.t.Helper()
	waitFor(r.t, what, cond)
}

// waitFor polls cond until it holds, for up to 5 s of real time.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// deadlineAt waits for the server's read deadline to be d past the
// start.
func (r *sessionRig) deadlineAt(d time.Duration) {
	r.t.Helper()
	r.waitFor("the read deadline at +"+d.String(), func() bool {
		return r.server.readDeadline().Equal(r.start.Add(d))
	})
}

func (r *sessionRig) result() served {
	r.t.Helper()
	select {
	case s := <-r.done:
		return s
	case <-time.After(5 * time.Second):
		r.t.Fatal("the session never ended")
		return served{}
	}
}

// TestServerSessionTiming drives the one session loop both tiers run on
// a virtual clock: every deadline it enforces and every exposure it
// measures is exact.
func TestServerSessionTiming(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		keepAlive, maxExp     time.Duration
		drive                 func(r *sessionRig)
		wantEnd               string // "" expects Open to fail
		wantExposure          time.Duration
		wantEvents, wantCount int
	}{
		{
			name: "handshake timeout", keepAlive: time.Minute, maxExp: 30 * time.Minute,
			drive: func(r *sessionRig) {
				r.deadlineAt(10 * time.Second)
				r.advance(10 * time.Second)
			},
		},
		{
			name: "keepalive drops a silent peer", keepAlive: time.Minute, maxExp: 30 * time.Minute,
			drive: func(r *sessionRig) {
				r.open()
				r.deadlineAt(2 * time.Minute)
				r.advance(time.Minute) // a ping nobody answers
				r.advance(time.Minute)
			},
			wantEnd: EndKeepAlive, wantExposure: 2 * time.Minute, wantEvents: 1, wantCount: 1,
		},
		{
			name: "keepalive sustains a peer that answers", keepAlive: time.Minute, maxExp: 30 * time.Minute,
			drive: func(r *sessionRig) {
				r.open()
				r.answer()
				for i := 1; i <= 5; i++ {
					r.advance(time.Minute)
					// The pong renewed the deadline to two intervals out.
					r.deadlineAt(time.Duration(i+2) * time.Minute)
				}
				_ = r.client.Close(wsproto.CloseNormal, "unload")
			},
			wantEnd: EndPeer, wantExposure: 5 * time.Minute, wantEvents: 1, wantCount: 1,
		},
		{
			name: "the exposure cap ends the session", keepAlive: time.Minute, maxExp: 3 * time.Minute,
			drive: func(r *sessionRig) {
				r.open()
				r.answer()
				for i := 1; i <= 2; i++ {
					r.advance(time.Minute)
					r.waitFor("the ping", func() bool { return r.pings.Load() == int64(i) })
					// Pongs renew up to the cap, never past it.
					r.deadlineAt(3 * time.Minute)
				}
				r.advance(time.Minute)
			},
			wantEnd: EndExposureCap, wantExposure: 3 * time.Minute, wantEvents: 1, wantCount: 1,
		},
		{
			name: "updates past MaxEvents are dropped", maxExp: 30 * time.Minute,
			drive: func(r *sessionRig) {
				p := Payload{CampaignID: "srv", CreativeID: "cr", PageURL: "http://pub.example/", UserAgent: "UA"}
				p.Events = make([]Event, MaxEvents-1)
				for i := range p.Events {
					p.Events[i] = Event{Kind: EventMouseMove, At: time.Duration(i) * time.Millisecond}
				}
				r.write(wsproto.OpBinary, p.EncodeBinary())
				for i := 0; i < 3; i++ {
					r.write(wsproto.OpBinary, EncodeBinaryEventUpdate(Event{Kind: EventClick, At: time.Hour}))
				}
				r.waitFor("the first update", func() bool { return r.srv.Events.Load() == 1 })
				r.advance(time.Minute) // exposure keeps running
				_ = r.client.Close(wsproto.CloseNormal, "unload")
			},
			wantEnd: EndPeer, wantExposure: time.Minute, wantEvents: MaxEvents, wantCount: 1,
		},
		{
			name: "a pong during a drain does not renew the deadline", keepAlive: time.Minute, maxExp: 30 * time.Minute,
			drive: func(r *sessionRig) {
				r.open()
				r.answer()
				r.srv.draining.Store(true)
				r.advance(time.Minute)
				r.waitFor("the ping", func() bool { return r.pings.Load() == 1 })
				// The update follows the pong on the wire: once it is
				// counted, the pong has been read.
				r.update(2)
				r.deadlineAt(2 * time.Minute)
				r.advance(time.Minute)
			},
			wantEnd: EndDrain, wantExposure: 2 * time.Minute, wantEvents: 2, wantCount: 2,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newSessionRig(t, tc.keepAlive, tc.maxExp)
			tc.drive(r)
			got := r.result()
			if tc.wantEnd == "" {
				if got.err != ErrNoPayload {
					t.Fatalf("Open = %v, want ErrNoPayload", got.err)
				}
				return
			}
			if got.err != nil {
				t.Fatalf("Open: %v", got.err)
			}
			if got.end != tc.wantEnd || got.exposure != tc.wantExposure {
				t.Fatalf("session ended %q after %v, want %q after %v", got.end, got.exposure, tc.wantEnd, tc.wantExposure)
			}
			if n := len(got.sess.Payload.Events); n != tc.wantEvents {
				t.Fatalf("session kept %d events, want %d", n, tc.wantEvents)
			}
			if n := r.srv.Events.Load(); n != int64(tc.wantCount) {
				t.Fatalf("Events counted %d updates, want %d", n, tc.wantCount)
			}
			if !got.sess.ConnectedAt.Equal(r.start) {
				t.Fatalf("connected at %v, want the virtual start %v", got.sess.ConnectedAt, r.start)
			}
		})
	}
}

// serveEndpoint serves srv as a tier does: a wsproto.Front answering
// clean upgrades in place ahead of an http.Server with srv behind it.
// It returns the beacon URL.
func serveEndpoint(t *testing.T, srv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serveOn(t, srv, ln)
}

// serveOn is serveEndpoint on ln.
func serveOn(t *testing.T, srv *Server, ln net.Listener) string {
	t.Helper()
	front := wsproto.NewFront(ln, map[string]wsproto.Route{"/beacon": srv.Route()})
	hs := &http.Server{Handler: srv}
	go func() { _ = hs.Serve(front) }()
	t.Cleanup(func() {
		_ = hs.Close()
		_ = front.Close()
	})
	return "ws://" + ln.Addr().String() + "/beacon"
}

// dialEndpoint opens a connection; with open set it also sends a
// session's payload and one click.
func dialEndpoint(t *testing.T, url string, header http.Header, open bool) *wsproto.Conn {
	t.Helper()
	conn, _, err := (&wsproto.Dialer{Header: header}).Dial(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.NetConn().Close() })
	if !open {
		return conn
	}
	p := Payload{CampaignID: "srv", CreativeID: "cr", PageURL: "http://pub.example/", UserAgent: "UA"}
	for _, msg := range []string{p.Encode(), EncodeEventUpdate(Event{Kind: EventClick, At: time.Second})} {
		if err := conn.WriteText(msg); err != nil {
			t.Fatal(err)
		}
	}
	return conn
}

// expectClose reads conn until its close and checks the code and reason.
func expectClose(t *testing.T, conn *wsproto.Conn, want wsproto.CloseError) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var ce *wsproto.CloseError
	if _, _, err := conn.ReadMessage(); !errors.As(err, &ce) || *ce != want {
		t.Fatalf("session ended with %v, want close %d %q", err, want.Code, want.Reason)
	}
}

// TestServerDrain: Drain closes every tracked connection with the
// tier's drain close, which ends each session as drained; it waits for
// them on the server's clock and returns how many were still tracked
// when the grace ran out; and a connection that arrives during the
// drain is closed the same way without a session.
func TestServerDrain(t *testing.T) {
	clk := simclock.NewVirtual(time.Now())
	drainClose := wsproto.CloseError{Code: wsproto.CloseServiceRestart, Reason: "test drain"}
	ends := make(chan string, 2)
	release := make(chan struct{})
	srv := &Server{
		Clock:            clk,
		HandshakeTimeout: 10 * time.Second,
		MaxExposure:      time.Hour,
		MaxMessageSize:   1 << 10,
		DrainClose:       drainClose,
		Admit:            func(string) string { return "" },
		Events:           new(telemetry.Counter),
		Serve: func(sess *ServerSession, _ netip.Addr) {
			end, _ := sess.Run(nil)
			ends <- end
			<-release // the commit outlasts the grace
		},
	}
	url := serveEndpoint(t, srv)
	conns := []*wsproto.Conn{dialEndpoint(t, url, nil, true), dialEndpoint(t, url, nil, true)}
	waitFor(t, "both sessions to run", func() bool { return srv.Events.Load() == 2 })

	drained := make(chan int, 1)
	go func() { drained <- srv.Drain(time.Minute) }()
	for _, conn := range conns {
		expectClose(t, conn, drainClose)
	}
	for range conns {
		if end := <-ends; end != EndDrain {
			t.Fatalf("a drained session ended %q, want %q", end, EndDrain)
		}
	}
	waitFor(t, "Drain to wait on the clock", func() bool { return clk.Waiters() == 1 })
	select {
	case n := <-drained:
		t.Fatalf("Drain returned %d before its grace ran out", n)
	default:
	}
	clk.Advance(time.Minute)
	if n := <-drained; n != 2 {
		t.Fatalf("Drain returned %d, want the 2 connections still tracked", n)
	}

	late := dialEndpoint(t, url, nil, false)
	expectClose(t, late, drainClose)
	close(release)
	waitFor(t, "every connection to be untracked", func() bool { return srv.Tracked() == 0 })
}

// TestServerDrainPastAStalledPeer: a tier's write stuck on a peer that
// stopped reading — a trunk's reply — holds up neither the drain close of
// another connection nor the grace. Drain returns when the grace runs out
// on its clock, counting the stuck connection, and cuts its transport.
func TestServerDrainPastAStalledPeer(t *testing.T) {
	clk := simclock.NewVirtual(time.Now())
	drainClose := wsproto.CloseError{Code: wsproto.CloseServiceRestart, Reason: "test drain"}
	stuck, wrote, ends := make(chan struct{}), make(chan error, 1), make(chan string, 1)
	srv := &Server{
		Clock:            clk,
		HandshakeTimeout: 10 * time.Second,
		MaxExposure:      time.Hour,
		MaxMessageSize:   1 << 10,
		DrainClose:       drainClose,
		Admit:            func(string) string { return "" },
		Events:           new(telemetry.Counter),
		Serve: func(sess *ServerSession, _ netip.Addr) {
			if sess.Payload.CreativeID == "stall" {
				close(stuck)
				wrote <- sess.conn.WriteMessage(wsproto.OpBinary, []byte("reply"))
				return
			}
			end, _ := sess.Run(nil)
			ends <- end
		},
	}
	// Unbuffered, a write blocks until the far end reads it.
	var nw memnet.Network
	ln, err := nw.Listen("tier:80")
	if err != nil {
		t.Fatal(err)
	}
	url := serveOn(t, srv, ln)
	dial := func(creative string, msgs ...string) *wsproto.Conn {
		t.Helper()
		conn, _, err := (&wsproto.Dialer{NetDial: nw.Dial}).Dial(context.Background(), url)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.NetConn().Close() })
		p := Payload{CampaignID: "srv", CreativeID: creative, PageURL: "http://pub.example/", UserAgent: "UA"}
		for _, msg := range append([]string{p.Encode()}, msgs...) {
			if err := conn.WriteText(msg); err != nil {
				t.Fatal(err)
			}
		}
		return conn
	}
	dial("stall") // and never read from again
	<-stuck
	live := dial("cr", EncodeEventUpdate(Event{Kind: EventClick, At: time.Second}))
	waitFor(t, "the live session to run", func() bool { return srv.Events.Load() == 1 })

	drained := make(chan int, 1)
	go func() { drained <- srv.Drain(time.Minute) }()
	expectClose(t, live, drainClose)
	if end := <-ends; end != EndDrain {
		t.Fatalf("the live session ended %q, want %q", end, EndDrain)
	}
	waitFor(t, "Drain to wait on the clock with only the stalled peer tracked", func() bool {
		return clk.Waiters() == 1 && srv.Tracked() == 1
	})
	clk.Advance(time.Minute)
	select {
	case n := <-drained:
		if n != 1 {
			t.Fatalf("Drain returned %d, want the stalled connection", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return when its grace ran out")
	}
	select {
	case err := <-wrote:
		if err == nil {
			t.Fatal("the write to a peer that never read completed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the stuck write outlived the drain")
	}
	waitFor(t, "every connection to be untracked", func() bool { return srv.Tracked() == 0 })
}

// TestServerUpgradePaths: a clean handshake is answered in place at the
// front and one whose head is too long for it through net/http; each
// upgrade is counted once, on its own via series, and serves a session.
func TestServerUpgradePaths(t *testing.T) {
	reg := telemetry.NewRegistry()
	served := make(chan string, 2)
	srv := &Server{
		Clock:            simclock.NewVirtual(time.Now()),
		HandshakeTimeout: 10 * time.Second,
		MaxExposure:      time.Hour,
		MaxMessageSize:   1 << 10,
		Admit:            func(string) string { return "" },
		Connections:      reg.Counter("connections_total", "", nil),
		Upgrades:         reg.CounterVec("upgrades_total", "", "via"),
		Serve: func(sess *ServerSession, _ netip.Addr) {
			end, _ := sess.Run(nil)
			served <- end
		},
	}
	url := serveEndpoint(t, srv)
	inPlace, netHTTP := srv.Upgrades.With("in-place"), srv.Upgrades.With("net-http")
	for i, header := range []http.Header{nil, {"Cookie": {strings.Repeat("c", 8<<10)}}} {
		conn := dialEndpoint(t, url, header, true)
		if err := conn.Close(wsproto.CloseNormal, "unload"); err != nil {
			t.Fatal(err)
		}
		if end := <-served; end != EndPeer {
			t.Fatalf("session %d ended %q, want %q", i, end, EndPeer)
		}
		if in, via := inPlace.Load(), netHTTP.Load(); in != 1 || via != int64(i) {
			t.Fatalf("after session %d: %d in place, %d through net/http; want 1, %d", i, in, via, i)
		}
	}
	if n := srv.Connections.Load(); n != 2 {
		t.Fatalf("connections = %d, want 2", n)
	}
}
