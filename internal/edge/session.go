package edge

import (
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/trace"
	"adaudit/internal/trunk"
	"adaudit/internal/wsproto"
)

// stageOffset computes a trace stage offset relative to the beacon's
// stamped send time, clamped like the collector's trace adoption.
func stageOffset(sentUnixNanos int64, at time.Time) time.Duration {
	return trace.ClampSkew(at.Sub(time.Unix(0, sentUnixNanos)))
}

// runSession drives one beacon connection end to end: payload
// handshake, pool selection by nonce, keepalive, event collection, and
// the commit handoff into the owning pool's spill when the connection
// ends. Nothing goes upstream before that: the finished connection is
// the unit of record, and its commit carries every event.
func (e *Edge) runSession(conn *wsproto.Conn) {
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
	connectedAt := time.Now()

	_ = conn.SetReadDeadline(connectedAt.Add(e.cfg.HandshakeTimeout))
	op, msg, err := conn.ReadMessage()
	if err != nil || !op.IsData() {
		_ = conn.Close(wsproto.ClosePolicyViolation, "no payload")
		return
	}
	recvAt := time.Now()
	// The first message's opcode selects the session wire, mirroring
	// the collector's negotiation. The commit re-encodes as text either
	// way: the trunk protocol predates the binary wire and the collector
	// ingests both identically.
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
		}
	}

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
