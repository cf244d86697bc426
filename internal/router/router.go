// Package router is the N-upstream configuration of internal/edge: the
// multiplexing front tier of the horizontally sharded collector
// topology, one process that terminates beacon WebSockets (and whole
// gateway trunks) and consistent-hashes every session onto one of N
// collector shards by its session key — the beacon nonce — so each
// shard's store + WAL + streaming audit engine owns a stable, disjoint
// slice of the dataset. The shard-merge layer (internal/shardmerge)
// reunions those slices into the single-store audit the paper's
// methodology needs.
//
// Session termination, the per-shard trunk pools, their spill buffers
// and replay are the edge core's: a shard restart re-homes nothing
// across shards (ownership is the hash, not the topology) but replays
// every outstanding commit to the restarted shard, whose store drops
// the legs it counted already. This package owns what a router adds:
// its Config, its metric names (adaudit_router_*, per-shard series
// under shard_id), the merged live API, and the /trunk relay — an edge
// gateway (internal/gateway) can point its collector URL at the router,
// which writes each commit once onto the owning shard and relays the
// shard's ack back. Only the first hop holds a commit, so the relay
// spills nothing: the gateway's own spill covers the full path.
package router

import (
	"fmt"
	"log/slog"
	"strconv"
	"sync"
	"time"

	"adaudit/internal/edge"
	"adaudit/internal/telemetry"
	"adaudit/internal/trunk"
	"adaudit/internal/wsproto"
)

// Config assembles a Router.
type Config struct {
	// Shards lists each collector shard's trunk endpoint
	// (ws://host:port/trunk) in shard order. The order is the identity
	// of the topology: the hash routes by index, and the shard-merge
	// layer must union exports in the same order for bit-stable float
	// aggregates. Required, at least one.
	Shards []string
	// TrunkToken is presented on shard trunk handshakes and required of
	// gateways trunking into /trunk (empty disables both checks).
	TrunkToken string
	// RouterID names this router in its shard trunks' Hello, which the
	// shards log. Defaults to a random token.
	RouterID string
	// TrunksPerShard is the size of each shard's trunk pool (default 2).
	TrunksPerShard int
	// Dialer customises shard trunk dials (tests inject faults).
	Dialer wsproto.Dialer

	// The rest mean what gateway.Config's fields of the same names do,
	// defaults included. Each shard's pool has its own trunks and spill;
	// SpillLimit is summed over every shard's spill, and a commit its
	// shard has not acked is re-sent after AckTimeout, which also bounds
	// a relayed commit's write and how long its return path is kept.
	AllowedOrigins    []string
	MaxSessions       int
	KeepAliveInterval time.Duration
	SpillLimit        int
	AckTimeout        time.Duration
	ReplayInterval    time.Duration
	BreakerCooldown   time.Duration
	Logger            *slog.Logger
	Telemetry         *telemetry.Registry
}

// Router terminates beacon sessions and gateway trunks and multiplexes
// them onto per-shard trunk pools: an edge.Edge with one pool per shard
// plus the relay's return paths. Beacon (whose tracking covers relayed
// gateway trunks too), Telemetry, Health, Drain and Close are the core's.
type Router struct {
	*edge.Edge

	// trunks runs every relayed gateway trunk.
	trunks trunk.Receiver
	// The relay's own instruments (nil-safe); the core counts the rest.
	relayTrunks *telemetry.Gauge
	relayFrames *telemetry.CounterVec
	relayDrops  *telemetry.Counter

	// relays maps the router streams of relayed commits back to their
	// origin gateway connection and stream, so shard acks can be
	// forwarded; sweepAt is when the relay path next drops the ones
	// unanswered past AckTimeout.
	relayMu sync.Mutex
	relays  map[uint64]relayEntry
	sweepAt time.Time
}

// New validates cfg and returns a started Router: every shard pool's
// trunk runners and replay loop are live. Callers own serving HTTP (see
// Server) and must Close the router when done.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("router: config requires at least one shard trunk URL")
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	r := &Router{
		relays: map[uint64]relayEntry{},
		relayTrunks: reg.Gauge("adaudit_router_relay_trunks_active",
			"Gateway trunk connections currently terminated on this router.", nil),
		relayFrames: reg.CounterVec("adaudit_router_relay_frames_total",
			"Trunk frames relayed from gateways onto shards, by frame type.", "type"),
		relayDrops: reg.Counter("adaudit_router_relay_drops_total",
			"Relayed commits dropped because no trunk of their shard took them; the gateway replays them.", nil),
	}
	upstreams := make([]edge.Upstream, len(cfg.Shards))
	for i, u := range cfg.Shards {
		upstreams[i] = edge.Upstream{URL: u, Tel: shardInstruments(reg, i)}
	}
	e, err := edge.New(edge.Config{
		Name: "router", IDPrefix: "rt-",
		Upstreams:         upstreams,
		ID:                cfg.RouterID,
		TrunksPerPool:     cfg.TrunksPerShard,
		TrunkToken:        cfg.TrunkToken,
		Dialer:            cfg.Dialer,
		AllowedOrigins:    cfg.AllowedOrigins,
		MaxSessions:       cfg.MaxSessions,
		KeepAliveInterval: cfg.KeepAliveInterval,
		SpillLimit:        cfg.SpillLimit,
		AckTimeout:        cfg.AckTimeout,
		ReplayInterval:    cfg.ReplayInterval,
		BreakerCooldown:   cfg.BreakerCooldown,
		Logger:            cfg.Logger,
		Telemetry:         reg,
		Tel: edge.Instruments{
			Connections: reg.Counter("adaudit_router_connections_total",
				"Beacon WebSocket connections accepted at the router.", nil),
			SessionsActive: reg.Gauge("adaudit_router_sessions_active",
				"Beacon sessions and gateway trunks currently open on this router.", nil),
			Sheds: reg.CounterVec("adaudit_router_sheds_total",
				"Beacon requests refused at admission, by reason.", "reason"),
			Upgrades: reg.CounterVec("adaudit_router_upgrades_total",
				"Beacon upgrades completed, by what answered them: the accepting front in place, or net/http.", "via"),
			Events: reg.Counter("adaudit_router_events_total",
				"Interaction updates received from beacon sessions.", nil),
			Commits: reg.Counter("adaudit_router_commits_total",
				"Session commits handed to a shard's spill/forward pipeline.", nil),
		},
		OnResolve: r.relayResolve,
	})
	if err != nil {
		return nil, err
	}
	r.Edge = e
	// A relayed ack is written from a shard trunk's reader goroutine,
	// which every other ack from that shard waits behind, so a write to
	// a gateway is bounded: one that cannot take an ack within AckTimeout
	// would have replayed the commit by then anyway.
	ec := e.Config() // defaults filled in
	r.trunks = trunk.Receiver{
		HandshakeTimeout: edge.HandshakeTimeout,
		WriteTimeout:     ec.AckTimeout,
		Refused: func(p *trunk.Peer, _ string, err error) {
			if err != nil {
				ec.Logger.Warn("router: malformed relay trunk batch", "gateway", p.ID, "err", err)
			}
		},
	}
	shards := float64(len(cfg.Shards))
	reg.GaugeFunc("adaudit_router_shards_total",
		"Configured collector shard count.", nil, func() float64 { return shards })
	reg.GaugeFunc("adaudit_router_spill_pending",
		"Commits awaiting shard acknowledgement, summed over all shards.", nil,
		func() float64 { return float64(e.Health().SpillPending) })
	for i := range cfg.Shards {
		reg.GaugeFunc("adaudit_router_shard_spill_pending",
			"Commits awaiting this shard's acknowledgement.", shardLabel(i),
			func() float64 { return float64(e.Health().Pools[i].SpillPending) })
	}
	return r, nil
}

func shardLabel(i int) map[string]string {
	return map[string]string{"shard_id": strconv.Itoa(i)}
}

// shardInstruments names one shard pool's series. Every one carries a
// shard_id label, so the same metric name fans out into one series per
// shard — a dashboard can spot a hot or dead shard without per-shard
// scrape targets.
func shardInstruments(reg *telemetry.Registry, shard int) edge.PoolInstruments {
	lbl := shardLabel(shard)
	return edge.PoolInstruments{
		Commits: reg.Counter("adaudit_router_shard_commits_total",
			"Commits routed onto this shard.", lbl),
		Acks: reg.Counter("adaudit_router_shard_acks_total",
			"Commits acknowledged by this shard.", lbl),
		Rejects: reg.Counter("adaudit_router_shard_rejected_total",
			"Commits this shard rejected permanently.", lbl),
		Replays: reg.Counter("adaudit_router_shard_replays_total",
			"Commit retransmissions after a trunk change or ack timeout.", lbl),
		BreakerOpens: reg.Counter("adaudit_router_shard_breaker_opens_total",
			"Trunk circuit-breaker openings toward this shard.", lbl),
		TrunkBatches: reg.Counter("adaudit_router_shard_trunk_batches_total",
			"Batch messages written to this shard's trunks.", lbl),
		TrunksHealthy: reg.Gauge("adaudit_router_shard_trunks_healthy",
			"Trunk connections currently established to this shard.", lbl),
		Forward: reg.Histogram("adaudit_router_shard_forward_seconds",
			"Commit-to-shard-ack latency, spill time included.",
			telemetry.LatencyBuckets(), lbl),
		BatchBytes: reg.Histogram("adaudit_router_shard_batch_bytes",
			"Trunk batch sizes at flush.", edge.BatchByteBuckets(), lbl),
	}
}
