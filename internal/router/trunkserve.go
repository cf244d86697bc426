package router

import (
	"net/http"
	"strconv"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/edge"
	"adaudit/internal/trunk"
	"adaudit/internal/wsproto"
)

// relayEntry is the return path for one trunk-relayed stream.
type relayEntry struct {
	origin       *wsproto.Conn
	originStream uint64
	originKey    string
	pool         *edge.Pool
}

// originKey names a gateway's stream across all of its trunk
// connections.
func originKey(gatewayID string, stream uint64) string {
	return gatewayID + "/" + strconv.FormatUint(stream, 10)
}

// ServeTrunk terminates one gateway trunk connection on the router: the
// gateway speaks the ordinary trunk protocol, unaware that its
// "collector" is a router fanning its sessions out across shards. Every
// relayed commit is re-streamed under a router-owned stream ID onto the
// shard its nonce hashes to, held in that shard's spill buffer until
// the shard acks, and the ack is translated back to the gateway's
// original stream ID — so the gateway's own spill discipline covers the
// full gateway → router → shard path with no new protocol.
//
// Replays are layered: a gateway re-sending an unacked commit while the
// router still holds it in spill is folded onto the same router stream
// (relayByOrigin); a replay arriving after the router already resolved
// the stream gets a fresh router stream and is absorbed by the shard
// collector's nonce dedup — the same backstop a collector restart
// relies on in the single-collector topology.
func (r *Router) ServeTrunk(w http.ResponseWriter, req *http.Request) {
	cfg := r.Config()
	if tok := cfg.TrunkToken; tok != "" && req.Header.Get(trunk.TokenHeader) != tok {
		http.Error(w, "bad trunk token", http.StatusForbidden)
		return
	}
	up := wsproto.Upgrader{MaxMessageSize: edge.TrunkMaxMessage}
	conn, err := up.Upgrade(w, req)
	if err != nil {
		cfg.Logger.Debug("router: trunk handshake rejected", "err", err, "remote", req.RemoteAddr)
		return
	}
	if r.Draining() {
		_ = conn.Close(wsproto.CloseGoingAway, "router shutting down")
		return
	}
	conn.ReuseReadBuffer()
	// Relayed trunks ride the same session tracking as beacon
	// connections, so Drain tears them down too: the gateway spills
	// unacked commits and replays them against another router.
	r.TrackSession(conn)
	defer r.UntrackSession(conn)
	r.relayTrunks.Add(1)
	defer r.relayTrunks.Add(-1)
	defer conn.Close(wsproto.CloseNormal, "")

	_ = conn.SetReadDeadline(time.Now().Add(cfg.HandshakeTimeout))
	gatewayID := ""
	for {
		op, msg, err := conn.ReadMessage()
		if err != nil {
			if gatewayID != "" {
				cfg.Logger.Debug("router: relay trunk closed", "gateway", gatewayID, "err", err)
			}
			return
		}
		if op != wsproto.OpBinary {
			_ = conn.Close(wsproto.ClosePolicyViolation, "trunk frames must be binary")
			return
		}
		frames, err := trunk.DecodeBatch(msg)
		if err != nil {
			cfg.Logger.Warn("router: malformed relay trunk batch", "gateway", gatewayID, "err", err)
			_ = conn.Close(wsproto.ClosePolicyViolation, "malformed trunk batch")
			return
		}
		var reply []byte
		for _, f := range frames {
			r.relayFrames.With(f.Type.String()).Inc()
			switch f.Type {
			case trunk.Hello:
				if f.Version != trunk.Version {
					_ = conn.Close(wsproto.ClosePolicyViolation, trunk.VersionMismatch(f.Version))
					return
				}
				if gatewayID == "" {
					gatewayID = f.GatewayID
					_ = conn.SetReadDeadline(time.Time{})
					cfg.Logger.Info("router: relay trunk established",
						"gateway", gatewayID, "version", f.Version, "remote", req.RemoteAddr)
				}
			case trunk.Commit:
				reply = r.relayCommitFrame(conn, gatewayID, f, reply)
			}
		}
		if gatewayID == "" {
			_ = conn.Close(wsproto.ClosePolicyViolation, "trunk batch before hello")
			return
		}
		if len(reply) > 0 {
			if err := conn.WriteMessage(wsproto.OpBinary, reply); err != nil {
				return
			}
		}
	}
}

// relayCommitFrame re-streams one gateway commit onto its owning shard
// and registers the ack return path. Undecodable commits are rejected
// back to the gateway immediately; everything else is answered
// asynchronously when the shard acks.
func (r *Router) relayCommitFrame(conn *wsproto.Conn, gatewayID string,
	f trunk.Frame, reply []byte) []byte {
	payload, err := beacon.Decode(f.Payload)
	if err != nil {
		return trunk.AppendFrame(reply, trunk.Frame{
			Type: trunk.Reject, Stream: f.Stream, Reason: "decode: " + err.Error(),
		})
	}
	if payload.Nonce == "" {
		payload.Nonce = beacon.NewNonce()
		f.Payload = payload.Encode()
	}
	pool := r.PoolFor(payload.Nonce)
	key := originKey(gatewayID, f.Stream)

	r.relayMu.Lock()
	rs, replayed := r.relayByOrigin[key]
	if replayed {
		// The gateway re-sent a commit the router still holds: fold it
		// onto the existing router stream and re-point the return path
		// at the connection the replay arrived on.
		e := r.relays[rs]
		e.origin = conn
		pool = e.pool
	} else {
		rs = r.NextStream()
		r.relays[rs] = &relayEntry{
			origin: conn, originStream: f.Stream, originKey: key, pool: pool,
		}
		r.relayByOrigin[key] = rs
	}
	r.relayMu.Unlock()

	f.Stream = rs
	frame := trunk.AppendFrame(nil, f)
	if replayed {
		pool.Respill(rs, frame)
	} else {
		pool.Spill(rs, frame)
	}
	return reply
}

// relayResolve completes one relayed stream: the shard acked (ok) or
// rejected it, so the verdict is translated back to the origin
// gateway's stream and the mappings are dropped. Streams with no relay
// entry (router-terminated beacon sessions) are a no-op. A failed write
// back to the gateway is not retried: the gateway's ack timeout replays
// the commit, and the shard's nonce dedup turns that replay into a
// fresh ack.
func (r *Router) relayResolve(stream uint64, ok bool, reason string) {
	r.relayMu.Lock()
	e, found := r.relays[stream]
	if found {
		delete(r.relays, stream)
		delete(r.relayByOrigin, e.originKey)
	}
	r.relayMu.Unlock()
	if !found {
		return
	}
	reply := trunk.Frame{Type: trunk.Ack, Stream: e.originStream}
	if !ok {
		reply = trunk.Frame{Type: trunk.Reject, Stream: e.originStream, Reason: reason}
	}
	// wsproto serialises writers, so this ack can fan back from a shard
	// pool's reader goroutine while ServeTrunk writes its own replies.
	_ = e.origin.WriteMessage(wsproto.OpBinary, trunk.AppendFrame(nil, reply))
}
