package router

import (
	"net/http"

	"adaudit/internal/beacon"
	"adaudit/internal/trunk"
	"adaudit/internal/wsproto"
)

// relayEntry is the return path for one trunk-relayed stream.
type relayEntry struct {
	origin       *trunk.Peer
	originStream uint64
	originKey    originKey
}

// originKey names a gateway's stream across all of its trunk
// connections.
type originKey struct {
	gateway string
	stream  uint64
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
// A gateway re-sending an unacked commit while the router still holds
// it is folded onto the same router stream (relayByOrigin): only the
// return path moves to the connection the replay arrived on. A replay
// arriving after the router already resolved the stream is relayed
// under a fresh router stream, and the shard's store drops it as a leg
// of its nonce it has counted already.
func (r *Router) ServeTrunk(w http.ResponseWriter, req *http.Request) {
	cfg := r.Config()
	if !trunk.Authorized(req, cfg.TrunkToken) {
		http.Error(w, "bad trunk token", http.StatusForbidden)
		return
	}
	up := wsproto.Upgrader{MaxMessageSize: trunk.MaxMessage}
	conn, err := up.Upgrade(w, req)
	if err != nil {
		cfg.Logger.Debug("router: trunk handshake rejected", "err", err, "remote", req.RemoteAddr)
		return
	}
	// Relayed trunks ride the beacon endpoint's tracking, so Drain tears
	// them down too: the gateway spills unacked commits and replays them
	// against another router.
	if !r.Beacon().Track(conn) {
		return
	}
	defer r.Beacon().Untrack(conn)
	r.relayTrunks.Add(1)
	defer r.relayTrunks.Add(-1)

	p, err := r.trunks.Serve(conn, func(p *trunk.Peer, f trunk.Frame, reply []byte) []byte {
		r.relayFrames.With(f.Type.String()).Inc()
		switch f.Type {
		case trunk.Hello:
			cfg.Logger.Info("router: relay trunk established",
				"gateway", p.ID, "version", f.Version, "remote", req.RemoteAddr)
		case trunk.Commit:
			return r.relayCommitFrame(p, f, reply)
		}
		return reply
	})
	if err != nil && p.ID != "" {
		cfg.Logger.Debug("router: relay trunk closed", "gateway", p.ID, "err", err)
	}
}

// relayCommitFrame re-streams one gateway commit onto its owning shard
// and registers the ack return path. Undecodable commits are rejected
// back to the gateway immediately; everything else is answered
// asynchronously when the shard acks.
func (r *Router) relayCommitFrame(origin *trunk.Peer, f trunk.Frame, reply []byte) []byte {
	payload, err := beacon.DecodeBinary([]byte(f.Payload))
	if err != nil {
		return trunk.AppendFrame(reply, trunk.Frame{
			Type: trunk.Reject, Stream: f.Stream, Reason: "decode: " + err.Error(),
		})
	}
	if payload.Nonce == "" {
		payload.Nonce = beacon.NewNonce()
		f.Payload = string(payload.EncodeBinary())
	}
	key := originKey{origin.ID, f.Stream}
	r.relayMu.Lock()
	if rs, held := r.relayByOrigin[key]; held {
		// Still spilled (only its resolve drops both maps, under this
		// lock): re-point the ack and send nothing again.
		r.relays[rs].origin = origin
		r.relayMu.Unlock()
		return reply
	}
	rs := r.NextStream()
	r.relays[rs] = &relayEntry{origin: origin, originStream: f.Stream, originKey: key}
	r.relayByOrigin[key] = rs
	r.relayMu.Unlock()
	f.Stream = rs
	r.PoolFor(payload.Nonce).Spill(rs, trunk.AppendFrame(nil, f))
	return reply
}

// relayResolve completes one relayed stream: the shard acked (ok) or
// rejected it, so the verdict is translated back to the origin
// gateway's stream and the mappings are dropped. Streams with no relay
// entry (router-terminated beacon sessions) are a no-op. A failed write
// back to the gateway is not retried: it closes the relay trunk, the
// gateway replays the commit, and the shard's store drops the leg it
// counted and acks the replay.
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
	// Send serialises writers, so this ack can fan back from a shard
	// pool's reader goroutine while ServeTrunk writes its own replies;
	// its bound keeps a stalled gateway from parking that reader.
	_ = e.origin.Send(trunk.AppendFrame(nil, reply))
}
