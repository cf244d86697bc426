package collector

import (
	"net/http"
	"net/netip"
	"time"

	"adaudit/internal/store"
	"adaudit/internal/trace"
	"adaudit/internal/trunk"
	"adaudit/internal/wsproto"
)

// ServeTrunk terminates one gateway trunk on the shared receiver
// (trunk.Receiver). Commits are ingested through the same funnel as
// direct beacon sessions and acknowledged per stream. A replayed commit
// (a gateway re-homing after a trunk failure, retrying after a lost
// ack, or replaying its spill to a restarted collector) carries the
// nonce and leg it did the first time, so the store drops it and it is
// acked without a second count.
func (c *Collector) ServeTrunk(w http.ResponseWriter, r *http.Request) {
	if !trunk.Authorized(r, c.cfg.TrunkToken) {
		c.reject(RejectTrunkAuth)
		http.Error(w, "bad trunk token", http.StatusForbidden)
		return
	}
	up := wsproto.Upgrader{MaxMessageSize: trunk.MaxMessage}
	conn, err := up.Upgrade(w, r)
	if err != nil {
		c.reject(RejectUpgrade)
		c.cfg.Logger.Debug("collector: trunk handshake rejected", "err", err, "remote", r.RemoteAddr)
		return
	}
	// Trunks ride the beacon endpoint's tracking, so Drain tears them
	// down too: the gateway spills unacked commits and replays them
	// against the restarted collector.
	if !c.sessions.Track(conn) {
		return
	}
	defer c.sessions.Untrack(conn)
	c.tel.trunksActive.Add(1)
	defer c.tel.trunksActive.Add(-1)

	var raw []byte // each commit's payload, decoded before the next
	p, err := c.trunks.Serve(conn, func(p *trunk.Peer, f trunk.Frame, reply []byte) []byte {
		c.tel.trunkFrames.With(f.Type.String()).Inc()
		switch f.Type {
		case trunk.Hello:
			c.cfg.Logger.Info("collector: trunk established",
				"gateway", p.ID, "version", f.Version, "remote", r.RemoteAddr)
		case trunk.Commit:
			raw = append(raw[:0], f.Payload...)
			return c.ingestTrunkCommit(p.ID, f, raw, reply)
		default:
			c.reject(RejectTrunkProto)
		}
		return reply
	})
	if err != nil && p.ID != "" {
		c.cfg.Logger.Debug("collector: trunk closed", "gateway", p.ID, "err", err)
	}
}

// ingestTrunkCommit processes one Commit frame, whose payload the caller
// has copied into raw, and appends the Ack or Reject reply to the batch
// under construction.
func (c *Collector) ingestTrunkCommit(gatewayID string, f trunk.Frame, raw, reply []byte) []byte {
	rejectFrame := func(reason string) []byte {
		return trunk.AppendFrame(reply, trunk.Frame{Type: trunk.Reject, Stream: f.Stream, Reason: reason})
	}
	payload, err := c.decodePooled(raw)
	if err != nil {
		return rejectFrame("decode: " + err.Error())
	}
	defer payloadPool.Put(payload)
	remote, err := netip.ParseAddr(f.RemoteIP)
	if err != nil {
		c.reject(RejectPeerAddr)
		return rejectFrame("peer-addr: " + err.Error())
	}
	// Adopt the payload's trace context, then splice in the stage
	// offsets the gateway measured on its own leg, so the sampled trace
	// shows the full hop sequence: beacon_send, wire_recv, gateway_recv,
	// trunk_forward, decode, ...
	tr := c.adoptTrace(*payload)
	for _, st := range f.Stages {
		tr.StageAt(st.Name, st.Offset)
	}
	tr.Stage(trace.StageDecode)
	_, outcome, err := c.ingest(Observation{
		Payload:     *payload,
		RemoteIP:    remote.Unmap(),
		ConnectedAt: time.Unix(0, f.ConnectedAt),
		Exposure:    f.Exposure,
		Trace:       tr,
	})
	if err != nil {
		// Ingest already classified the reject; the Reject tells the
		// gateway this exact commit is hopeless.
		c.cfg.Logger.Warn("collector: trunk commit rejected",
			"gateway", gatewayID, "stream", f.Stream, "err", err)
		return rejectFrame("ingest: " + err.Error())
	}
	if outcome != store.LegReplayed {
		c.tel.exposure.ObserveDuration(f.Exposure)
		// The session's events arrive here, all at once: counting them
		// once per leg the store counts (never for a dropped replay)
		// keeps the forwarded path's event metric equal to the direct
		// path's.
		c.Metrics.Events.Add(int64(len(payload.Events)))
	}
	return trunk.AppendFrame(reply, trunk.Frame{Type: trunk.Ack, Stream: f.Stream})
}
