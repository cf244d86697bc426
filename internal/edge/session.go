package edge

import (
	"net/netip"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/trace"
	"adaudit/internal/trunk"
)

// serveSession is an opened beacon session at the edge: the shared loop
// (beacon.Server) runs it, then its commit is handed into the owning
// pool's spill. Nothing goes upstream before that: the finished
// connection is the unit of record, and its commit carries every event.
// The collector parses the peer address sent here with netip.ParseAddr.
func (e *Edge) serveSession(sess *beacon.ServerSession, peer netip.Addr) {
	remote := peer.String()
	payload := &sess.Payload
	// The nonce is both the shard key and what the collector's store
	// counts each leg of once, so that a replayed commit is dropped
	// instead of double-counted; a nonce-less payload gets one minted
	// before the pool is chosen, and client retries that carry it land
	// on the same shard.
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
			{Name: trace.StageTrunkForward, Offset: trace.ClampSkew(e.cfg.Clock.Since(sent))},
		}
	}
	// The commit carries the binary wire encoding whichever wire the
	// session spoke, so the collector has one decoder for it.
	var enc [512]byte
	commit := trunk.AppendFrame(nil, trunk.Frame{
		Type: trunk.Commit, Stream: stream,
		RemoteIP:    remote,
		ConnectedAt: sess.ConnectedAt.UnixNano(),
		Exposure:    min(exposure, maxExposure),
		Payload:     string(payload.AppendBinary(enc[:0])),
		Stages:      stages,
	})
	// Spilled before the endpoint closes the client: once the commit is
	// in the pool's spill buffer the replay loop guarantees delivery, so
	// the close the client treats as its ack is never a lie.
	p.spillCommit(stream, commit)
}
