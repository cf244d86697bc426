package beacon

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/netip"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"adaudit/internal/simclock"
	"adaudit/internal/telemetry"
	"adaudit/internal/wsproto"
)

// Why a server stopped reading a session (ServerSession.Run).
const (
	EndPeer        = "peer-close"        // clean WebSocket close from the beacon
	EndError       = "error"             // read error / TCP reset
	EndExposureCap = "exposure-cap"      // MaxExposure fired
	EndKeepAlive   = "keepalive-timeout" // peer stopped answering pings
	EndDrain       = "drain"             // the server drained the session
)

// Why a connection failed (Server.Refused): before its session was
// served, or, for a panic, at any point.
const (
	FailUpgrade   = "upgrade"   // the net/http upgrade failed
	FailHandshake = "handshake" // no payload before the handshake deadline
	FailDecode    = "decode"    // the payload did not decode
	FailPeerAddr  = "peer-addr" // the peer address does not parse
	FailPanic     = "panic"     // the session panicked
)

// ErrNoPayload is Server.Open's error for a peer that sent no payload.
var ErrNoPayload = errors.New("beacon: no payload before the handshake deadline")

// Server is the server side of the session protocol Client speaks: the
// one beacon endpoint a collector and a forwarding edge both serve. It
// admits a request, upgrades it — through net/http (ServeHTTP) or in
// place at a wsproto.Front (Route) — tracks the connection until it is
// over, and hands the tier an opened session. The first data message is
// the impression payload and its opcode picks the wire; later ones are
// interaction updates; the connection's lifetime on Clock is the
// impression's exposure (§3). Keepalive drops a peer that stops
// answering within two intervals, so a dead browser cannot inflate its
// exposure. Drain ends every tracked connection with the tier's close.
//
// Its fields are what the tiers set differently; none may change, nor
// the Server be copied, once it serves.
type Server struct {
	Clock             simclock.Clock // required
	HandshakeTimeout  time.Duration
	KeepAliveInterval time.Duration // <= 0 disables keepalive
	MaxExposure       time.Duration
	MaxMessageSize    int64
	// DecodeBinary decodes a binary-wire payload into p, keeping nothing
	// that aliases msg; nil is DecodeBinary.
	DecodeBinary func(p *Payload, msg []byte) error

	// Admit decides a request by its Origin ("" when it sent none): ""
	// admits it, anything else is the reason Shed writes the refusal
	// for.
	Admit func(origin string) string
	Shed  func(w http.ResponseWriter, reason string)
	// Serve runs an opened session from the peer at remote: Run, then
	// what the tier does with the impression. The close that follows is
	// the peer's ack.
	Serve func(sess *ServerSession, remote netip.Addr)
	// Refused, when set, hears every connection that failed, by its
	// Fail* class, before the peer is told.
	Refused func(class string, err error)
	// DrainClose is what Drain closes every tracked connection with, and
	// Track every connection that arrives during a drain.
	DrainClose wsproto.CloseError
	Logger     *slog.Logger // nil is slog.Default()

	// Nil-safe instruments: upgraded connections, tracked connections,
	// upgrades by what answered them (via="in-place": the front;
	// "net-http") and their latency, the payload decode's latency, the
	// updates sessions keep, the keepalive pings that could not be
	// written, and the connections a drain's grace left open.
	Connections  *telemetry.Counter
	Active       *telemetry.Gauge
	Upgrades     *telemetry.CounterVec
	Upgrade      *telemetry.Histogram
	Decode       *telemetry.Histogram
	Events       *telemetry.Counter
	PingFailures *telemetry.Counter
	Dropped      *telemetry.Counter

	once             sync.Once
	upgrader         wsproto.Upgrader
	inPlace, netHTTP *telemetry.Counter

	mu       sync.Mutex
	conns    map[*wsproto.Conn]struct{}
	wg       sync.WaitGroup
	draining atomic.Bool
}

// init derives what every connection shares from the fields.
func (s *Server) init() {
	s.once.Do(func() {
		// Ad beacons are cross-origin by design, so every origin passes the
		// upgrade; browsers offer permessage-deflate, and long sessions of
		// updates gain by it.
		s.upgrader = wsproto.Upgrader{MaxMessageSize: s.MaxMessageSize, EnableCompression: true}
		// Resolved here: With boxes its argument on every call.
		s.inPlace, s.netHTTP = s.Upgrades.With("in-place"), s.Upgrades.With("net-http")
		s.conns = map[*wsproto.Conn]struct{}{}
	})
}

func (s *Server) log() *slog.Logger { return cmp.Or(s.Logger, slog.Default()) }

// ServeHTTP is the endpoint through net/http: admission, the upgrade,
// then the connection on its own goroutine, so that net/http's
// per-request state is released for the session's lifetime.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.init()
	if reason := s.Admit(r.Header.Get("Origin")); reason != "" {
		s.Shed(w, reason)
		return
	}
	start := s.Clock.Now()
	conn, err := s.upgrader.Upgrade(w, r)
	if err != nil {
		s.fail(nil, FailUpgrade, fmt.Errorf("upgrade from %s: %w", r.RemoteAddr, err))
		return
	}
	go s.serve(conn, s.Clock.Since(start), s.netHTTP)
}

// Route is the endpoint as a wsproto.Front answers it in place: the
// same admission and connection around an upgrade made at the front.
// What the front does not answer — every refusal among it — reaches
// ServeHTTP through net/http.
func (s *Server) Route() wsproto.Route {
	s.init()
	return wsproto.Route{
		Upgrader: &s.upgrader,
		Admit:    func(origin string) bool { return s.Admit(origin) == "" },
		Serve:    func(conn *wsproto.Conn, upgrade time.Duration) { s.serve(conn, upgrade, s.inPlace) },
	}
}

// serve is a connection's life from the completed upgrade on, whichever
// path (counted on via) made it.
func (s *Server) serve(conn *wsproto.Conn, upgrade time.Duration, via *telemetry.Counter) {
	s.Upgrade.ObserveDuration(upgrade)
	via.Inc()
	s.Connections.Inc()
	if !s.Track(conn) {
		return
	}
	defer s.Untrack(conn)
	// A panic — a malformed frame tripping a bug, a store failure mode —
	// costs its session, not the process with every session it holds
	// and every commit it has acked.
	defer func() {
		if r := recover(); r != nil {
			s.fail(conn, FailPanic, fmt.Errorf("session panicked: %v\n%s", r, debug.Stack()))
		}
	}()
	// A session without a peer address to record ends before anything
	// is committed or acked.
	remote, err := wsproto.PeerAddr(conn.RemoteAddr())
	if err != nil {
		s.fail(conn, FailPeerAddr, err)
		return
	}
	if sess, err := s.Open(conn); errors.Is(err, ErrNoPayload) {
		s.fail(conn, FailHandshake, err)
	} else if err != nil {
		s.fail(conn, FailDecode, fmt.Errorf("from %s: %w", remote, err))
	} else {
		s.Serve(sess, remote)
		_ = conn.Close(wsproto.CloseNormal, "")
	}
}

// fail reports a connection that failed with class and closes it (if
// upgraded): a policy violation naming what was wrong with the peer, or
// an internal error after a panic.
func (s *Server) fail(conn *wsproto.Conn, class string, err error) {
	if s.Refused != nil {
		s.Refused(class, err)
	}
	level, code, reason := slog.LevelDebug, wsproto.ClosePolicyViolation, ""
	switch class {
	case FailPeerAddr:
		level, reason = slog.LevelWarn, "bad peer address"
	case FailHandshake:
		reason = "no payload"
	case FailDecode:
		reason = "bad payload"
	case FailPanic:
		level, code, reason = slog.LevelError, wsproto.CloseInternalError, "internal error"
	}
	s.log().Log(context.Background(), level, "beacon: connection failed", "class", class, "err", err)
	if conn != nil {
		_ = conn.Close(code, reason)
	}
}

// Track registers a live connection — a beacon session, or a trunk the
// tier terminates — so that Drain closes it and waits for its Untrack.
// Once a drain has begun it closes conn with DrainClose instead and
// returns false; only a true Track is paired with Untrack.
func (s *Server) Track(conn *wsproto.Conn) bool {
	s.init()
	s.mu.Lock()
	// Drain raises the flag under mu: a connection that races it is
	// either closed by it or refused here, never neither.
	if s.draining.Load() {
		s.mu.Unlock()
		_ = conn.Close(s.DrainClose.Code, s.DrainClose.Reason)
		return false
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	s.Active.Add(1)
	return true
}

// Untrack ends a true Track once the connection's handler is done.
func (s *Server) Untrack(conn *wsproto.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.Active.Add(-1)
	s.wg.Done()
}

// Tracked returns the number of tracked connections.
func (s *Server) Tracked() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain closes every tracked connection with DrainClose, which ends a
// session with EndDrain and lets the tier commit it, and from then on
// closes every connection Track is handed the same way. It waits up to
// grace on Clock, the closes included, for them to be untracked, and
// returns how many were still tracked when grace ran out (counted on
// Dropped), having cut their transports; what those hold dies with the
// process, the paper's §3.1 loss model.
func (s *Server) Drain(grace time.Duration) int {
	s.mu.Lock()
	s.draining.Store(true)
	conns := make([]*wsproto.Conn, 0, len(s.conns))
	for conn := range s.conns {
		conns = append(conns, conn)
	}
	s.mu.Unlock()
	// Closing the transport breaks a session's read; the commit follows.
	// A close waits behind any write stuck on a peer that stopped reading
	// (a trunk's reply), so each runs on its own.
	for _, conn := range conns {
		go conn.Close(s.DrainClose.Code, s.DrainClose.Reason)
	}

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	timer := s.Clock.NewTimer(grace)
	defer timer.Stop()
	select {
	case <-done:
		return 0
	case <-timer.C():
		n := s.Tracked()
		if n > 0 {
			s.Dropped.Add(int64(n))
			s.log().Warn("beacon: drain grace expired with connections still open", "open", n, "grace", grace)
		}
		for _, conn := range conns { // fails a write still stuck, and its close
			_ = conn.NetConn().Close()
		}
		return n
	}
}

// ServerSession is one beacon connection as a Server reads it.
type ServerSession struct {
	// Payload is the impression payload, every update kept appended to
	// its Events.
	Payload Payload
	// ConnectedAt (the impression timestamp) and Received (the payload's
	// arrival) are on the server's clock.
	ConnectedAt, Received time.Time
	// Wire is the payload's wire, WireText or WireBinary. A text
	// payload's unescaped strings are substrings of its message: a
	// string kept past the session keeps the whole message alive.
	Wire string

	srv  *Server
	conn *wsproto.Conn
}

// Open reads a session's payload, due within HandshakeTimeout, and
// decodes it by its opcode: text is the JavaScript beacon's query
// string, binary the binary wire. The error is ErrNoPayload when none
// arrived, else the decode's.
func (s *Server) Open(conn *wsproto.Conn) (*ServerSession, error) {
	ss := &ServerSession{srv: s, conn: conn, ConnectedAt: s.Clock.Now()}
	// Every message is decoded or copied before the next read.
	conn.ReuseReadBuffer()
	_ = conn.SetReadDeadline(ss.ConnectedAt.Add(s.HandshakeTimeout))
	op, msg, err := conn.ReadMessage()
	if err != nil || !op.IsData() {
		return nil, ErrNoPayload
	}
	ss.Received, ss.Wire = s.Clock.Now(), WireBinary
	switch {
	case op == wsproto.OpText:
		ss.Wire = WireText
		ss.Payload, err = Decode(string(msg))
	case s.DecodeBinary != nil:
		err = s.DecodeBinary(&ss.Payload, msg)
	default:
		ss.Payload, err = DecodeBinary(msg)
	}
	if s.Decode != nil {
		s.Decode.ObserveDuration(s.Clock.Since(ss.Received))
	}
	if err != nil {
		return nil, err
	}
	return ss, nil
}

// Run reads interaction updates until the session ends — the peer
// closes or goes away, stops answering pings, reaches MaxExposure, or
// the server drains it — and returns why, with the exposure. Each update
// is decoded by its own opcode; one that fails goes to badUpdate (if
// set) and is skipped, and past MaxEvents they are dropped while the
// exposure keeps running.
func (ss *ServerSession) Run(badUpdate func(error)) (end string, exposure time.Duration) {
	s, conn := ss.srv, ss.conn
	conn.SetPongHandler(func([]byte) { ss.renewDeadline() })
	ss.renewDeadline()
	if ka := s.KeepAliveInterval; ka > 0 {
		stop := make(chan struct{})
		defer close(stop)
		// Ticking from before the first read, not from whenever the pinger
		// gets to run. A failed ping is counted and left to the deadline.
		tick := s.Clock.NewTicker(ka)
		go func() {
			if KeepAlive(s.Clock, conn, tick, stop) != nil {
				s.PingFailures.Inc()
			}
		}()
	}
	for {
		op, msg, err := conn.ReadMessage()
		if err != nil {
			end = ss.endReason(err)
			break
		}
		ss.renewDeadline()
		var e Event
		var isEvent bool
		if op == wsproto.OpBinary {
			e, isEvent, err = DecodeBinaryEventUpdate(msg)
		} else {
			e, isEvent, err = DecodeEventUpdate(string(msg))
		}
		if err != nil && badUpdate != nil {
			badUpdate(err)
		}
		if err == nil && isEvent && len(ss.Payload.Events) < MaxEvents {
			s.Events.Inc()
			ss.Payload.Events = append(ss.Payload.Events, e)
		}
	}
	return end, s.Clock.Since(ss.ConnectedAt)
}

func (ss *ServerSession) draining() bool { return ss.srv.draining.Load() }

func (ss *ServerSession) hardStop() time.Time { return ss.ConnectedAt.Add(ss.srv.MaxExposure) }

// renewDeadline moves the read deadline to two keepalive intervals from
// now, never past the exposure cap — and not at all once a drain has
// begun: nothing may stretch a session that is being ended.
func (ss *ServerSession) renewDeadline() {
	if ss.draining() {
		return
	}
	d := ss.hardStop()
	if ka := ss.srv.KeepAliveInterval; ka > 0 {
		if soft := ss.srv.Clock.Now().Add(2 * ka); soft.Before(d) {
			d = soft
		}
	}
	_ = ss.conn.SetReadDeadline(d)
}

func (ss *ServerSession) endReason(err error) string {
	// Whatever a drained session reads last — the transport Drain closed,
	// or the peer's answer to the drain close, which can arrive first —
	// the drain ended it.
	if ss.draining() {
		return EndDrain
	}
	// ReadMessage returns a close bare, and a transport timeout as the
	// transport's error (errors.As would cost an allocation per target).
	if _, closed := err.(*wsproto.CloseError); closed {
		return EndPeer
	}
	ne, ok := err.(net.Error)
	switch {
	case !ok || !ne.Timeout():
		return EndError
	case !ss.srv.Clock.Now().Before(ss.hardStop()):
		return EndExposureCap
	}
	return EndKeepAlive
}

// KeepAlive pings conn on every tick until stop closes (nil) or a ping
// cannot be written within 5 s of clk (the write's error), then stops
// tick. The caller's read deadline is what acts on a missing pong.
func KeepAlive(clk simclock.Clock, conn *wsproto.Conn, tick simclock.Ticker, stop <-chan struct{}) error {
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return nil
		case <-tick.C():
			_ = conn.SetWriteDeadline(clk.Now().Add(5 * time.Second))
			err := conn.Ping(nil)
			_ = conn.SetWriteDeadline(time.Time{})
			if err != nil {
				return err
			}
		}
	}
}
