package beacon

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
	t        *testing.T
	clk      *simclock.Virtual
	start    time.Time
	srv      *Server
	draining atomic.Bool
	conn     chan *virtualConn
	server   *virtualConn
	client   *wsproto.Conn
	pings    atomic.Int64
	done     chan served
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
		Draining:          r.draining.Load,
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
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			r.t.Fatalf("timed out waiting for %s", what)
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
				r.draining.Store(true)
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
