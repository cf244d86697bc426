package router

import (
	"net/http"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/edge"
	"adaudit/internal/trunk"
	"adaudit/internal/wsproto"
)

// relayEntry is the return path of one relayed commit: the gateway
// trunk it came in on, its stream there, and when it was forwarded.
type relayEntry struct {
	origin       *trunk.Peer
	originStream uint64
	forwarded    time.Time
}

// ServeTrunk terminates one gateway trunk connection on the router: the
// gateway speaks the ordinary trunk protocol, unaware that its
// "collector" is a router fanning its sessions out across shards. Every
// relayed commit is written once, under a router-owned stream ID, onto
// the shard its nonce hashes to, and the shard's answer is translated
// back to the gateway's stream ID. Only the first hop holds a commit:
// the router spills nothing it relays, and drops a commit whose shard
// has no healthy trunk. The gateway's spill replays what goes
// unanswered, each replay is relayed afresh, and the shard's store
// drops a leg of a nonce it has counted already.
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

	failedIn := map[*edge.Pool]uint64{} // shard pool → the last batch a write to it failed in
	p, err := r.trunks.Serve(conn, func(p *trunk.Peer, f trunk.Frame, reply []byte) []byte {
		r.relayFrames.With(f.Type.String()).Inc()
		switch f.Type {
		case trunk.Hello:
			cfg.Logger.Info("router: relay trunk established",
				"gateway", p.ID, "version", f.Version, "remote", req.RemoteAddr)
		case trunk.Commit:
			return r.relayCommitFrame(p, f, reply, failedIn)
		}
		return reply
	})
	if err != nil && p.ID != "" {
		cfg.Logger.Debug("router: relay trunk closed", "gateway", p.ID, "err", err)
	}
}

// relayCommitFrame writes one gateway commit onto its owning shard and
// registers its return path. One that does not decode, or has no nonce
// (the first hop sets it; one minted here would count a replay twice),
// is rejected at once. One whose shard a write of the same batch failed
// to reach (failedIn: shard pool → the last of origin's batches a write
// to it failed in) is dropped at once: the shard's other trunks stall
// the same way, and the gateway replays it. Every drop is counted.
func (r *Router) relayCommitFrame(origin *trunk.Peer, f trunk.Frame, reply []byte, failedIn map[*edge.Pool]uint64) []byte {
	payload, err := beacon.DecodeBinary([]byte(f.Payload))
	var refusal string
	switch {
	case err != nil:
		refusal = "decode: " + err.Error()
	case payload.Nonce == "":
		refusal = "commit without nonce"
	}
	if refusal != "" {
		return trunk.AppendFrame(reply, trunk.Frame{Type: trunk.Reject, Stream: f.Stream, Reason: refusal})
	}
	pool := r.PoolFor(payload.Nonce)
	if failedIn[pool] == origin.Batch() {
		r.relayDrops.Inc()
		return reply
	}
	cfg := r.Config()
	now := cfg.Clock.Now()
	rs := r.NextStream()
	r.relayMu.Lock()
	if !now.Before(r.sweepAt) {
		// Unanswered past AckTimeout, a commit is the gateway's to replay.
		for s, e := range r.relays {
			if now.Sub(e.forwarded) > cfg.AckTimeout {
				delete(r.relays, s)
			}
		}
		r.sweepAt = now.Add(cfg.ReplayInterval)
	}
	r.relays[rs] = relayEntry{origin: origin, originStream: f.Stream, forwarded: now}
	r.relayMu.Unlock()
	f.Stream = rs
	if !pool.Forward(trunk.AppendFrame(nil, f)) {
		r.relayMu.Lock()
		delete(r.relays, rs)
		r.relayMu.Unlock()
		failedIn[pool] = origin.Batch()
		r.relayDrops.Inc()
	}
	return reply
}

// relayResolve translates a shard's verdict on a relayed stream back to
// the origin gateway's stream, drops the return path and returns when
// the commit was forwarded (zero: no return path). A failed write back
// is not retried: it closes the relay trunk, and the gateway replays.
func (r *Router) relayResolve(stream uint64, ok bool, reason string) time.Time {
	r.relayMu.Lock()
	e, found := r.relays[stream]
	delete(r.relays, stream)
	r.relayMu.Unlock()
	if !found {
		return time.Time{}
	}
	reply := trunk.Frame{Type: trunk.Ack, Stream: e.originStream}
	if !ok {
		reply = trunk.Frame{Type: trunk.Reject, Stream: e.originStream, Reason: reason}
	}
	// Send serialises writers, so this ack can fan back from a shard
	// pool's reader goroutine while ServeTrunk writes its own replies;
	// its bound keeps a stalled gateway from parking that reader.
	_ = e.origin.Send(trunk.AppendFrame(nil, reply))
	return e.forwarded
}
