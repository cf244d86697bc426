package edge

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/trace"
	"adaudit/internal/trunk"
	"adaudit/internal/wsproto"
)

// maxStageSkew clamps edge-measured trace offsets against clients
// whose clocks disagree wildly with ours — the same bound the
// collector's trace adoption applies.
const maxStageSkew = 5 * time.Minute

// stageOffset computes a trace stage offset relative to the beacon's
// stamped send time, clamped like the collector's trace adoption.
func stageOffset(sentUnixNanos int64, at time.Time) time.Duration {
	off := at.Sub(time.Unix(0, sentUnixNanos))
	if off < 0 {
		return 0
	}
	if off > maxStageSkew {
		return maxStageSkew
	}
	return off
}

// peerAddr extracts the peer's IP the way the collector does for a
// direct session, because the collector parses what is sent here with
// netip.ParseAddr: a TCP peer already holds its address in binary; only
// wrapped transports (faultnet, in-memory pipes) need the string
// parsed. IPv4-mapped IPv6 unmaps, so one client is one address
// whichever socket family accepted it.
func peerAddr(a net.Addr) (netip.Addr, error) {
	if tcp, ok := a.(*net.TCPAddr); ok {
		if ap := tcp.AddrPort(); ap.IsValid() {
			return ap.Addr().Unmap(), nil
		}
	}
	ap, err := netip.ParseAddrPort(a.String())
	if err != nil {
		return netip.Addr{}, fmt.Errorf("edge: parsing remote addr %q: %w", a.String(), err)
	}
	return ap.Addr().Unmap(), nil
}

// runSession drives one beacon connection end to end: payload
// handshake, pool selection by nonce, keepalive, event collection, and
// the commit handoff into the owning pool's spill/forward pipeline when
// the connection ends.
func (e *Edge) runSession(conn *wsproto.Conn) {
	// A commit whose peer address the collector cannot parse is rejected
	// for good, so such a session must end before anything is acked.
	peer, err := peerAddr(conn.RemoteAddr())
	if err != nil {
		e.log.Warn("edge: refusing session", "err", err)
		_ = conn.Close(wsproto.ClosePolicyViolation, "bad peer address")
		return
	}
	remote := peer.String()
	connectedAt := time.Now()

	_ = conn.SetReadDeadline(connectedAt.Add(e.cfg.HandshakeTimeout))
	op, msg, err := conn.ReadMessage()
	if err != nil || !op.IsData() {
		_ = conn.Close(wsproto.ClosePolicyViolation, "no payload")
		return
	}
	recvAt := time.Now()
	// The first message's opcode selects the session wire, mirroring
	// the collector's negotiation. Trunk frames re-encode as text
	// either way: the trunk protocol predates the binary wire and the
	// collector ingests both identically.
	var payload beacon.Payload
	if op == wsproto.OpBinary {
		payload, err = beacon.DecodeBinary(msg)
	} else {
		payload, err = beacon.Decode(string(msg))
	}
	if err != nil {
		e.log.Debug("edge: bad payload", "err", err, "remote", remote)
		_ = conn.Close(wsproto.ClosePolicyViolation, "bad payload")
		return
	}
	// The nonce is both the replay-dedup key and the shard key. The
	// commit may be replayed against a restarted collector whose
	// stream-dedup cache is gone, and the nonce is what lets that replay
	// merge instead of double-counting; so a nonce-less payload gets one
	// minted before the pool is chosen, and client retries that carry it
	// then land on the same shard.
	if payload.Nonce == "" {
		payload.Nonce = beacon.NewNonce()
	}
	p := e.PoolFor(payload.Nonce)
	stream := e.NextStream()

	// Edge-leg trace stages, measured against the beacon's stamped send
	// time (only meaningful, and only sent, for sampled payloads).
	traced := payload.TraceID != "" && payload.TraceSent > 0
	edgeRecv := stageOffset(payload.TraceSent, recvAt)

	// The forward queue decouples this session's reads from trunk
	// health: the forwarder goroutine drains it onto whichever trunk of
	// the pool is healthy, and when the queue hits its high watermark the
	// session's read loop stalls — backpressure into the client's TCP
	// window.
	q := newSessionQueue(e.cfg.QueueHigh, e.cfg.QueueLow)
	defer q.close()
	var fwdWG sync.WaitGroup
	fwdWG.Add(1)
	go func() {
		defer fwdWG.Done()
		p.forwardLoop(q)
	}()
	q.push(trunk.AppendFrame(nil, trunk.Frame{
		Type: trunk.Open, Stream: stream,
		RemoteIP:    remote,
		ConnectedAt: connectedAt.UnixNano(),
		Payload:     payload.Encode(),
	}))

	// Keepalive and exposure-cap deadlines, the collector's discipline
	// applied at the edge.
	hardStop := connectedAt.Add(e.cfg.MaxExposure)
	renewDeadline := func() {
		if e.draining.Load() {
			return
		}
		d := hardStop
		if ka := e.cfg.KeepAliveInterval; ka > 0 {
			if soft := time.Now().Add(2 * ka); soft.Before(d) {
				d = soft
			}
		}
		_ = conn.SetReadDeadline(d)
	}
	conn.SetPongHandler(func([]byte) { renewDeadline() })
	renewDeadline()
	if ka := e.cfg.KeepAliveInterval; ka > 0 {
		stopPings := make(chan struct{})
		defer close(stopPings)
		// A failed ping is left to the read deadline above to act on.
		go pingEvery(conn, ka, stopPings)
	}

	for {
		op, msg, err := conn.ReadMessage()
		if err != nil {
			break
		}
		renewDeadline()
		var ev beacon.Event
		var isEvent bool
		if op == wsproto.OpBinary {
			ev, isEvent, err = beacon.DecodeBinaryEventUpdate(msg)
		} else {
			ev, isEvent, err = beacon.DecodeEventUpdate(string(msg))
		}
		if err != nil {
			e.log.Debug("edge: bad event update", "err", err, "remote", remote)
			continue
		}
		if isEvent {
			e.cfg.Tel.Events.Add(1)
			payload.Events = append(payload.Events, ev)
			var evText string
			if op == wsproto.OpBinary {
				evText = beacon.EncodeEventUpdate(ev)
			} else {
				evText = string(msg)
			}
			q.push(trunk.AppendFrame(nil, trunk.Frame{
				Type: trunk.Event, Stream: stream, Payload: evText,
			}))
		}
	}
	// Stop forwarding advisory frames before building the commit, so
	// the commit is the last word on this stream.
	q.close()
	fwdWG.Wait()

	exposure := time.Since(connectedAt)
	if exposure > e.cfg.MaxExposure {
		exposure = e.cfg.MaxExposure
	}
	var stages []trunk.Stage
	if traced {
		stages = []trunk.Stage{
			{Name: trace.StageGatewayRecv, Offset: edgeRecv},
			{Name: trace.StageTrunkForward, Offset: stageOffset(payload.TraceSent, time.Now())},
		}
	}
	commit := trunk.AppendFrame(nil, trunk.Frame{
		Type: trunk.Commit, Stream: stream,
		RemoteIP:    remote,
		ConnectedAt: connectedAt.UnixNano(),
		Exposure:    exposure,
		Payload:     payload.Encode(),
		Stages:      stages,
	})
	// Spill before closing the client: once the commit is in the pool's
	// spill buffer the replay loop guarantees delivery, so the close
	// handshake the client treats as its ack is never a lie.
	p.Spill(stream, commit)

	if e.draining.Load() {
		_ = conn.Close(wsproto.CloseServiceRestart, e.drainCloseReason())
	} else {
		_ = conn.Close(wsproto.CloseNormal, "")
	}
}

// sessionQueue is a bounded frame queue between one session's read loop
// and its forwarder, with watermark hysteresis: pushes stall at the
// high watermark and resume only once the forwarder has drained the
// queue to the low watermark, so a slow upstream throttles the client's
// TCP window instead of growing edge memory.
type sessionQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	frames  [][]byte
	high    int
	low     int
	stalled bool
	closed  bool
}

func newSessionQueue(high, low int) *sessionQueue {
	q := &sessionQueue{high: high, low: low}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push appends a frame, blocking while the queue is over its high
// watermark. Reports false when the queue closed while waiting.
func (q *sessionQueue) push(frame []byte) bool {
	q.mu.Lock()
	if len(q.frames) >= q.high {
		q.stalled = true
	}
	for q.stalled && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.frames = append(q.frames, frame)
	q.mu.Unlock()
	q.cond.Broadcast()
	return true
}

// pop removes the oldest frame, blocking until one is available or the
// queue is closed and empty (ok == false). A closed queue still drains:
// the forwarder finishes in-flight advisory frames before the session
// builds its commit.
func (q *sessionQueue) pop() ([]byte, bool) {
	q.mu.Lock()
	for len(q.frames) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.frames) == 0 {
		q.mu.Unlock()
		return nil, false
	}
	f := q.frames[0]
	q.frames = q.frames[1:]
	if q.stalled && len(q.frames) <= q.low {
		q.stalled = false
	}
	q.mu.Unlock()
	q.cond.Broadcast()
	return f, true
}

// close wakes every waiter; pending frames remain poppable.
func (q *sessionQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
