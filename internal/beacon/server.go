package beacon

import (
	"errors"
	"net"
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

// ErrNoPayload is Server.Open's error for a peer that sent no payload.
var ErrNoPayload = errors.New("beacon: no payload before the handshake deadline")

// Server is the server half of the session protocol Client speaks, the
// one session loop a collector and a forwarding edge both run. The first
// data message is the impression payload and its opcode picks the wire;
// later ones are interaction updates; the connection's lifetime on Clock
// is the impression's exposure (§3). Keepalive drops a peer that stops
// answering within two intervals, so a dead browser cannot inflate its
// exposure. A Server is configuration only: one serves every connection.
type Server struct {
	Clock             simclock.Clock // required
	HandshakeTimeout  time.Duration
	KeepAliveInterval time.Duration // <= 0 disables keepalive
	MaxExposure       time.Duration
	// Draining reports a shutdown: from then on nothing renews a
	// session's read deadline, and a session that ends ends with
	// EndDrain. Nil is never draining.
	Draining func() bool
	// DecodeBinary decodes a binary-wire payload into p, keeping nothing
	// that aliases msg; nil is DecodeBinary.
	DecodeBinary func(p *Payload, msg []byte) error
	// Nil-safe instruments: the payload decode's latency, the updates
	// sessions keep, and the keepalive pings that could not be written.
	Decode       *telemetry.Histogram
	Events       *telemetry.Counter
	PingFailures *telemetry.Counter
}

// ServerSession is one beacon connection as a Server reads it.
type ServerSession struct {
	// Payload is the impression payload, every update kept appended to
	// its Events.
	Payload Payload
	// ConnectedAt (the impression timestamp) and Received (the payload's
	// arrival) are on the server's clock.
	ConnectedAt, Received time.Time

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
	ss.Received = s.Clock.Now()
	switch {
	case op == wsproto.OpText:
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

func (ss *ServerSession) draining() bool { return ss.srv.Draining != nil && ss.srv.Draining() }

func (ss *ServerSession) hardStop() time.Time { return ss.ConnectedAt.Add(ss.srv.MaxExposure) }

// renewDeadline moves the read deadline to two keepalive intervals from
// now, never past the exposure cap — unless a drain has forced it to the
// past, where nothing may push it back out.
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
	// ReadMessage returns a close bare, and a transport timeout as the
	// transport's error (errors.As would cost an allocation per target).
	if _, closed := err.(*wsproto.CloseError); closed {
		return EndPeer
	}
	ne, ok := err.(net.Error)
	switch {
	case ss.draining():
		return EndDrain
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
