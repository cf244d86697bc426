package edge

import (
	"errors"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/telemetry"
	"adaudit/internal/trace"
	"adaudit/internal/trunk"
	"adaudit/internal/wsproto"
)

// serveConn is a beacon connection's life from the completed upgrade
// on, whichever path (counted on via) made it: one session on the shared
// loop (beacon.Server), then the commit handoff into the owning pool's
// spill. Nothing goes upstream before that: the finished connection is
// the unit of record, and its commit carries every event.
func (e *Edge) serveConn(conn *wsproto.Conn, via *telemetry.Counter) {
	via.Inc()
	e.cfg.Tel.Connections.Add(1)
	// Tracked before the drain check: a connection that races Drain is
	// then either closed by it or sees the flag, never neither.
	e.TrackSession(conn)
	defer e.UntrackSession(conn)
	if e.draining.Load() {
		_ = conn.Close(wsproto.CloseServiceRestart, e.drainCloseReason())
		return
	}
	// A commit whose peer address the collector cannot parse is rejected
	// for good, so such a session must end before anything is acked. The
	// collector parses what is sent here with netip.ParseAddr.
	peer, err := wsproto.PeerAddr(conn.RemoteAddr())
	if err != nil {
		e.log.Warn("edge: refusing session", "err", err)
		_ = conn.Close(wsproto.ClosePolicyViolation, "bad peer address")
		return
	}
	remote := peer.String()
	sess, err := e.sessions.Open(conn)
	if errors.Is(err, beacon.ErrNoPayload) {
		_ = conn.Close(wsproto.ClosePolicyViolation, "no payload")
		return
	}
	if err != nil {
		e.log.Debug("edge: bad payload", "err", err, "remote", remote)
		_ = conn.Close(wsproto.ClosePolicyViolation, "bad payload")
		return
	}
	payload := &sess.Payload
	// The nonce is both the shard key and what lets a commit replayed to
	// a restarted collector (its stream dedup gone) merge instead of
	// double-counting, so a nonce-less payload gets one minted before the
	// pool is chosen; client retries that carry it land on the same shard.
	if payload.Nonce == "" {
		payload.Nonce = beacon.NewNonce()
	}
	p := e.PoolFor(payload.Nonce)
	stream := e.NextStream()

	_, exposure := sess.Run(func(err error) {
		e.log.Debug("edge: bad event update", "err", err, "remote", remote)
	})
	// Edge-leg trace stages, measured against the beacon's stamped send
	// time (only meaningful, and only sent, for sampled payloads) and
	// clamped like the collector's trace adoption.
	var stages []trunk.Stage
	if payload.TraceID != "" && payload.TraceSent > 0 {
		sent := time.Unix(0, payload.TraceSent)
		stages = []trunk.Stage{
			{Name: trace.StageGatewayRecv, Offset: trace.ClampSkew(sess.Received.Sub(sent))},
			{Name: trace.StageTrunkForward, Offset: trace.ClampSkew(time.Since(sent))},
		}
	}
	// The commit carries the binary wire encoding whichever wire the
	// session spoke, so the collector has one decoder for it.
	var enc [512]byte
	commit := trunk.AppendFrame(nil, trunk.Frame{
		Type: trunk.Commit, Stream: stream,
		RemoteIP:    remote,
		ConnectedAt: sess.ConnectedAt.UnixNano(),
		Exposure:    min(exposure, e.cfg.MaxExposure),
		Payload:     string(payload.AppendBinary(enc[:0])),
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
