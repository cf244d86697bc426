// Package gateway is the one-upstream configuration of internal/edge:
// the edge ingest tier, a lightweight trusted bridge that terminates
// beacon WebSockets close to the users emitting them and forwards the
// measurements to the central collector over a small pool of
// persistent trunk connections (internal/trunk). All of the machinery —
// admission control, per-trunk circuit breakers, and the spill buffer
// that holds every client-acknowledged impression until the collector
// durably acks it — is the edge core's, the session protocol
// beacon.Server's and the HTTP shell internal/daemon's; this package
// owns what makes the tier a gateway: its Config and its metric names
// (adaudit_gateway_*, unlabelled).
package gateway

import (
	"fmt"
	"log/slog"
	"time"

	"adaudit/internal/daemon"
	"adaudit/internal/edge"
	"adaudit/internal/simclock"
	"adaudit/internal/telemetry"
	"adaudit/internal/wsproto"
)

// Config assembles a Gateway.
type Config struct {
	// CollectorURL is the collector's trunk endpoint
	// (ws://host:port/trunk). Required.
	CollectorURL string
	// TrunkToken is presented on trunk handshakes when the collector
	// requires one.
	TrunkToken string
	// GatewayID names this gateway in its trunk Hello, which the
	// collector or router logs. Defaults to a random token.
	GatewayID string
	// Trunks is the size of the persistent trunk pool (default 2).
	Trunks int
	// Dialer customises the trunk dial (tests dial over internal/memnet
	// through NetDial). MaxMessageSize and Header are managed by the
	// gateway.
	Dialer wsproto.Dialer

	// AllowedOrigins restricts which page origins may open beacon
	// sessions: a request whose Origin header's host neither equals an
	// entry nor is a subdomain of one is refused with 403. Empty admits
	// all origins (ad iframes are cross-origin by design; deployments
	// scope this to the ad network's serving domains).
	AllowedOrigins []string
	// MaxSessions caps concurrent beacon sessions; 0 disables.
	MaxSessions int
	// KeepAliveInterval pings idle beacon sessions and trunks; a peer
	// that stops answering within two intervals is torn down. Default
	// 30s; negative disables.
	KeepAliveInterval time.Duration

	// SpillLimit bounds unacknowledged commits held across a collector
	// outage (default 65536); at the cap new sessions are shed, since
	// accepting them could only manufacture commitments the gateway
	// may not be able to keep.
	SpillLimit int
	// AckTimeout re-sends a commit the collector has not acked
	// (default 5s); ReplayInterval is the spill scan period (default 1s).
	AckTimeout     time.Duration
	ReplayInterval time.Duration

	// BreakerCooldown is how long a trunk's circuit breaker, opened by
	// three consecutive failed dials, stays open before a half-open
	// probe (default 1s).
	BreakerCooldown time.Duration

	// Logger receives operational events; defaults to slog.Default().
	Logger *slog.Logger
	// Clock runs every timer and timestamp of the gateway — sessions,
	// keepalive, spill, replay and breakers; nil is the real clock.
	Clock simclock.Clock
	// Telemetry is the registry gateway instruments register on; nil
	// creates a private one.
	Telemetry *telemetry.Registry
}

// Gateway terminates beacon sessions and forwards them over trunks: an
// edge.Edge with one pool. Beacon, Telemetry, Health, Drain and Close
// are the core's.
type Gateway struct{ *edge.Edge }

// New validates cfg and returns a started Gateway: trunk runners and
// the replay loop are live. Callers own serving HTTP (see Server) and
// must Close the gateway when done.
func New(cfg Config) (*Gateway, error) {
	if cfg.CollectorURL == "" {
		return nil, fmt.Errorf("gateway: config requires a collector trunk URL")
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	e, err := edge.New(edge.Config{
		Name: "gateway", IDPrefix: "gw-",
		Upstreams:         []edge.Upstream{{URL: cfg.CollectorURL, Tel: poolInstruments(reg)}},
		ID:                cfg.GatewayID,
		TrunksPerPool:     cfg.Trunks,
		TrunkToken:        cfg.TrunkToken,
		Dialer:            cfg.Dialer,
		AllowedOrigins:    cfg.AllowedOrigins,
		MaxSessions:       cfg.MaxSessions,
		KeepAliveInterval: cfg.KeepAliveInterval,
		SpillLimit:        cfg.SpillLimit,
		AckTimeout:        cfg.AckTimeout,
		ReplayInterval:    cfg.ReplayInterval,
		BreakerCooldown:   cfg.BreakerCooldown,
		Clock:             cfg.Clock,
		Logger:            cfg.Logger,
		Telemetry:         reg,
		Tel: edge.Instruments{
			Connections: reg.Counter("adaudit_gateway_connections_total",
				"Beacon WebSocket connections accepted at the edge.", nil),
			SessionsActive: reg.Gauge("adaudit_gateway_sessions_active",
				"Beacon sessions currently open on this gateway.", nil),
			Sheds: reg.CounterVec("adaudit_gateway_sheds_total",
				"Beacon requests refused at admission, by reason.", "reason"),
			Upgrades: reg.CounterVec("adaudit_gateway_upgrades_total",
				"Beacon upgrades completed, by what answered them: the accepting front in place, or net/http.", "via"),
			Events: reg.Counter("adaudit_gateway_events_total",
				"Interaction updates received from beacon sessions.", nil),
			// Commits is the pool's: with one pool the two counts are one.
		},
	})
	if err != nil {
		return nil, err
	}
	trunks := float64(e.Config().TrunksPerPool)
	reg.GaugeFunc("adaudit_gateway_trunks_total",
		"Configured trunk pool size.", nil, func() float64 { return trunks })
	reg.GaugeFunc("adaudit_gateway_spill_pending",
		"Commits awaiting collector acknowledgement.", nil,
		func() float64 { return float64(e.Health().SpillPending) })
	return &Gateway{e}, nil
}

// poolInstruments names the single pool's series: a gateway has one
// upstream, so they carry no label.
func poolInstruments(reg *telemetry.Registry) edge.PoolInstruments {
	return edge.PoolInstruments{
		Commits: reg.Counter("adaudit_gateway_commits_total",
			"Session commits handed to the spill/forward pipeline.", nil),
		Acks: reg.Counter("adaudit_gateway_acks_total",
			"Commits acknowledged by the collector.", nil),
		Rejects: reg.Counter("adaudit_gateway_rejected_total",
			"Commits the collector rejected permanently.", nil),
		Replays: reg.Counter("adaudit_gateway_replays_total",
			"Commit retransmissions after a trunk change or ack timeout.", nil),
		BreakerOpens: reg.Counter("adaudit_gateway_breaker_opens_total",
			"Trunk circuit-breaker openings.", nil),
		TrunkBatches: reg.Counter("adaudit_gateway_trunk_batches_total",
			"Batch messages written to trunks.", nil),
		TrunksHealthy: reg.Gauge("adaudit_gateway_trunks_healthy",
			"Trunk connections currently established.", nil),
		Forward: reg.Histogram("adaudit_gateway_forward_seconds",
			"Commit-to-collector-ack latency, spill time included.",
			telemetry.LatencyBuckets(), nil),
		BatchBytes: reg.Histogram("adaudit_gateway_batch_bytes",
			"Trunk batch sizes at flush.", edge.BatchByteBuckets(), nil),
	}
}

// ServerOption customises a Server.
type ServerOption = daemon.Option

// WithDrainGrace bounds how long Serve waits on shutdown for in-flight
// beacon sessions to commit and for the spill buffer to empty into the
// collector (default 5 s).
func WithDrainGrace(d time.Duration) ServerOption { return daemon.WithDrainGrace(d) }

// Server runs a Gateway behind the daemon shell: the beacon endpoint,
// GET /healthz (one upstream_0 check over the trunk pool, ok → degraded
// → unhealthy), GET /metrics (Prometheus text) and GET /api/metrics
// (JSON).
type Server = daemon.Server

// NewServer wraps g in a Server listening on addr (host:port; port 0
// picks a free port).
func NewServer(g *Gateway, addr string, opts ...ServerOption) (*Server, error) {
	return daemon.New(g.Tier(), addr, opts...)
}
