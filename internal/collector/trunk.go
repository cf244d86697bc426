package collector

import (
	"net/http"
	"net/netip"
	"strconv"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/trace"
	"adaudit/internal/trunk"
	"adaudit/internal/wsproto"
)

// trunkMaxMessage bounds one trunk batch message. A batch multiplexes
// many beacon payloads, so the limit is far above the per-beacon
// MaxMessageSize; 1 MiB comfortably holds the largest flush a gateway
// sends before its size threshold fires.
const trunkMaxMessage = 1 << 20

// streamCacheLimit is the per-generation trunk stream-dedup map size.
const streamCacheLimit = 1 << 16

// streamSeen reports whether the stream's commit was already ingested,
// recording it if not. One atomic check-and-record under the lock so
// two trunks replaying the same commit concurrently cannot both ingest.
func (c *Collector) streamSeen(key string) bool {
	c.streamMu.Lock()
	defer c.streamMu.Unlock()
	if _, ok := c.streams.Get(key); ok {
		return true
	}
	c.streams.Put(key, struct{}{})
	return false
}

// streamForget drops a stream key recorded by streamSeen — the undo for
// a commit whose ingest failed, so the gateway's replay is not
// deduplicated against an impression that never reached the store.
func (c *Collector) streamForget(key string) {
	c.streamMu.Lock()
	c.streams.Delete(key)
	c.streamMu.Unlock()
}

// ServeTrunk terminates one gateway trunk connection: a long-lived
// WebSocket multiplexing every beacon session the gateway holds, as
// batches of trunk frames. Commits are ingested through the same
// funnel as direct beacon sessions and acknowledged per stream;
// replayed commits (a gateway re-homing after a trunk failure, or
// retrying after a lost ack) are deduplicated by stream ID and acked
// without a second ingest.
func (c *Collector) ServeTrunk(w http.ResponseWriter, r *http.Request) {
	if tok := c.cfg.TrunkToken; tok != "" && r.Header.Get(trunk.TokenHeader) != tok {
		c.reject(RejectTrunkAuth)
		http.Error(w, "bad trunk token", http.StatusForbidden)
		return
	}
	up := wsproto.Upgrader{MaxMessageSize: trunkMaxMessage}
	conn, err := up.Upgrade(w, r)
	if err != nil {
		c.tel.rejects.With(RejectUpgrade).Inc()
		c.cfg.Logger.Debug("collector: trunk handshake rejected", "err", err, "remote", r.RemoteAddr)
		return
	}
	if c.draining.Load() {
		_ = conn.Close(wsproto.CloseGoingAway, "collector shutting down")
		return
	}
	// DecodeBatch copies every string out of the message, so the batch
	// buffer can recycle across reads.
	conn.ReuseReadBuffer()
	// Trunks ride the same session tracking as beacon connections, so
	// Drain tears them down too: the gateway spills unacked commits and
	// replays them against the restarted collector.
	c.trackSession(conn)
	defer c.untrackSession(conn)
	c.tel.trunksActive.Add(1)
	defer c.tel.trunksActive.Add(-1)
	defer conn.Close(wsproto.CloseNormal, "")

	// The gateway must identify itself promptly; after the Hello the
	// trunk may legitimately idle (the gateway pings keep it alive).
	_ = conn.SetReadDeadline(c.clock.Now().Add(c.cfg.HandshakeTimeout))
	gatewayID := ""
	for {
		op, msg, err := conn.ReadMessage()
		if err != nil {
			if gatewayID != "" {
				c.cfg.Logger.Debug("collector: trunk closed", "gateway", gatewayID, "err", err)
			}
			return
		}
		if op != wsproto.OpBinary {
			c.reject(RejectTrunkProto)
			_ = conn.Close(wsproto.ClosePolicyViolation, "trunk frames must be binary")
			return
		}
		frames, err := trunk.DecodeBatch(msg)
		if err != nil {
			c.reject(RejectTrunkProto)
			c.cfg.Logger.Warn("collector: malformed trunk batch", "gateway", gatewayID, "err", err)
			_ = conn.Close(wsproto.ClosePolicyViolation, "malformed trunk batch")
			return
		}
		var reply []byte
		for _, f := range frames {
			c.tel.trunkFrames.With(f.Type.String()).Inc()
			switch f.Type {
			case trunk.Hello:
				if f.Version != trunk.Version {
					c.reject(RejectTrunkProto)
					_ = conn.Close(wsproto.ClosePolicyViolation, trunk.VersionMismatch(f.Version))
					return
				}
				if gatewayID == "" {
					gatewayID = f.GatewayID
					_ = conn.SetReadDeadline(time.Time{})
					c.cfg.Logger.Info("collector: trunk established",
						"gateway", gatewayID, "version", f.Version, "remote", r.RemoteAddr)
				}
			case trunk.Commit:
				reply = c.ingestTrunkCommit(gatewayID, f, reply)
			default:
				c.reject(RejectTrunkProto)
			}
		}
		if gatewayID == "" {
			// First batch carried no Hello: a peer speaking the wrong
			// protocol, not a gateway.
			c.reject(RejectTrunkProto)
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

// ingestTrunkCommit processes one Commit frame and appends the Ack or
// Reject reply to the batch under construction.
func (c *Collector) ingestTrunkCommit(gatewayID string, f trunk.Frame, reply []byte) []byte {
	ack := func() []byte {
		return trunk.AppendFrame(reply, trunk.Frame{Type: trunk.Ack, Stream: f.Stream})
	}
	rejectFrame := func(reason string) []byte {
		return trunk.AppendFrame(reply, trunk.Frame{Type: trunk.Reject, Stream: f.Stream, Reason: reason})
	}
	key := gatewayID + "/" + strconv.FormatUint(f.Stream, 10)
	if c.streamSeen(key) {
		c.tel.trunkDuplicates.Inc()
		return ack()
	}
	payload, err := beacon.Decode(f.Payload)
	if err != nil {
		c.streamForget(key)
		c.reject(RejectDecode)
		return rejectFrame("decode: " + err.Error())
	}
	remote, err := netip.ParseAddr(f.RemoteIP)
	if err != nil {
		c.streamForget(key)
		c.reject(RejectPeerAddr)
		return rejectFrame("peer-addr: " + err.Error())
	}
	// Adopt the payload's trace context, then splice in the stage
	// offsets the gateway measured on its own leg, so the sampled trace
	// shows the full hop sequence: beacon_send, wire_recv, gateway_recv,
	// trunk_forward, decode, ...
	tr := c.adoptTrace(payload)
	for _, st := range f.Stages {
		tr.StageAt(st.Name, st.Offset)
	}
	tr.Stage(trace.StageDecode)
	if _, err := c.Ingest(Observation{
		Payload:     payload,
		RemoteIP:    remote.Unmap(),
		ConnectedAt: time.Unix(0, f.ConnectedAt),
		Exposure:    f.Exposure,
		Trace:       tr,
	}); err != nil {
		// Ingest already classified the reject. Forget the stream so a
		// replay retries rather than acking a record that never landed;
		// the Reject tells the gateway this exact commit is hopeless.
		c.streamForget(key)
		c.cfg.Logger.Warn("collector: trunk commit rejected",
			"gateway", gatewayID, "stream", f.Stream, "err", err)
		return rejectFrame("ingest: " + err.Error())
	}
	c.tel.exposure.ObserveDuration(f.Exposure)
	// The session's events arrive here, all at once: counting them on
	// first ingest keeps the forwarded path's event metric equal to the
	// direct path's.
	c.Metrics.Events.Add(int64(len(payload.Events)))
	return ack()
}
