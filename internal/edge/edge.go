// Package edge is the one forwarding tier that sits between beacons
// and collectors: it terminates beacon WebSockets, and forwards every
// session to a collector over a small pool of persistent trunk
// connections (internal/trunk). The paper's audit only holds if the
// collector receives every beacon a panelist emits, so the tier's whole
// job is robustness: admission control (origin allowlist, session cap,
// overload shedding with Retry-After hints the beacon client honors),
// per-trunk circuit breakers, and a spill buffer that holds every
// client-acknowledged commit until its collector durably acks it —
// across trunk failures and full collector restarts, replayed to a
// collector whose store counts each leg of a nonce once, so nothing is
// double-counted. A
// session sends nothing upstream until it ends; its one Commit frame
// carries the whole record.
//
// An Edge holds one pool per upstream collector and places a session
// on shardmerge.ShardFor(nonce, pools). That is the only thing the
// number of upstreams changes: internal/gateway is an Edge with one
// pool, internal/router an Edge with N pools that additionally mounts
// a trunk relay, which writes other edges' commits once through
// Pool.Forward and holds none: only the first hop holds a commit, in
// its spill, and replays what goes unanswered. Both packages
// own what differs between the tiers — their Config, their metric
// names, their extra routes — and nothing else; both serve through the
// daemon shell (Tier), whose /healthz schema is every daemon's.
//
// The tier is trusted infrastructure, unlike the clients it fronts: it
// measures exposure as connection lifetime on its clock and ships
// the connection-derived facts (peer IP, connect time, exposure) in a
// self-contained Commit frame, exactly the facts the collector would
// have derived had the beacon connected directly — because the beacon
// endpoint that accepts, tracks, measures and drains the connection is
// the collector's own, beacon.Server. This package hands it admission,
// the shed response, the drain close and what is done with a finished
// session (the spill).
package edge

import (
	"cmp"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/daemon"
	"adaudit/internal/shardmerge"
	"adaudit/internal/simclock"
	"adaudit/internal/telemetry"
	"adaudit/internal/wsproto"
)

// The session limits of every edge, the collector's defaults; the
// router's relay bounds the wait for a trunk's Hello by HandshakeTimeout.
const (
	HandshakeTimeout = 10 * time.Second // for a session's first payload
	maxMessageSize   = 16 << 10         // bytes of one beacon message
	maxExposure      = 30 * time.Minute // a session's measured lifetime
)

// Shed reasons, the values of the tiers' sheds_total{reason=...}.
const (
	ShedDraining = "draining" // draining for shutdown
	ShedCapacity = "capacity" // MaxSessions cap reached
	ShedSpill    = "spill"    // spill buffer full: an upstream outage outlasting memory
	ShedOrigin   = "origin"   // page origin not in the allowlist
)

// Upstream is one collector an Edge forwards to and the instruments
// its pool counts on.
type Upstream struct {
	URL string // the collector's trunk endpoint (ws://host:port/trunk)
	Tel PoolInstruments
}

// retryAfterHint is the reconnect delay handed to shed and drained
// clients: the 503's Retry-After, in whole seconds, and the drain
// close's "retry-after=" reason.
const retryAfterHint = 2 * time.Second

// Config assembles an Edge. Every tunable but BreakerThreshold is one
// the tier packages export under the same name, documented on
// gateway.Config; zero values take the defaults listed there.
// BreakerThreshold is how many consecutive failed dials open a trunk's
// circuit breaker (default 3).
type Config struct {
	// Name is the tier's word for itself ("gateway", "router"): the tier
	// attribute on log records, the shed response body and the uptime
	// series. IDPrefix starts a generated ID.
	Name, IDPrefix string
	// Upstreams lists the collectors in shard order: the order is the
	// identity of the topology, because sessions are placed by index.
	Upstreams []Upstream
	// ID names this edge in the trunk Hello, which the upstream logs.
	// Empty generates IDPrefix plus a random token.
	ID string
	// TrunksPerPool is the size of each upstream's trunk pool.
	TrunksPerPool int
	TrunkToken    string
	Dialer        wsproto.Dialer

	AllowedOrigins    []string
	MaxSessions       int
	KeepAliveInterval time.Duration

	// SpillLimit bounds unacknowledged commits summed over every pool.
	SpillLimit     int
	AckTimeout     time.Duration
	ReplayInterval time.Duration

	BreakerThreshold int
	BreakerCooldown  time.Duration
	Clock            simclock.Clock

	Logger *slog.Logger
	// Telemetry is the registry the tier built Tel and every Upstream's
	// instruments on; the daemon shell exposes it.
	Telemetry *telemetry.Registry
	Tel       Instruments

	// OnResolve, when set, hears every upstream verdict (acked, or
	// rejected with a reason) on a stream no spill holds, and returns
	// when it forwarded that stream's commit, or zero for a stream it
	// does not know. The router's relay answers its gateway with it.
	OnResolve func(stream uint64, acked bool, reason string) (forwarded time.Time)
}

// Instruments are the edge-wide series. The core counts; the tier owns
// the registry and the names. Every field is nil-safe, so a tier leaves
// out what it does not expose.
type Instruments struct {
	Connections    *telemetry.Counter
	SessionsActive *telemetry.Gauge
	Sheds          *telemetry.CounterVec
	// Upgrades counts completed beacon upgrades by what answered them
	// (via="in-place": the server's accepting front; "net-http").
	Upgrades *telemetry.CounterVec
	Events   *telemetry.Counter
	Commits  *telemetry.Counter
}

// PoolInstruments are one pool's series, nil-safe like Instruments.
type PoolInstruments struct {
	Commits       *telemetry.Counter
	Acks          *telemetry.Counter
	Rejects       *telemetry.Counter
	Replays       *telemetry.Counter
	BreakerOpens  *telemetry.Counter
	TrunkBatches  *telemetry.Counter
	TrunksHealthy *telemetry.Gauge
	Forward       *telemetry.Histogram
	BatchBytes    *telemetry.Histogram
}

// BatchByteBuckets are the bounds of the tiers' batch-size histograms.
func BatchByteBuckets() []float64 {
	return []float64{256, 1024, 4096, 16384, 65536, 262144}
}

// withDefaults fills every zero tunable: the one defaulting block for
// both tiers.
func (cfg Config) withDefaults() (Config, error) {
	if cfg.ID == "" {
		var b [6]byte
		if _, err := rand.Read(b[:]); err != nil {
			return cfg, fmt.Errorf("%s: generating id: %w", cfg.Name, err)
		}
		cfg.ID = cfg.IDPrefix + hex.EncodeToString(b[:])
	}
	if cfg.TrunksPerPool <= 0 {
		cfg.TrunksPerPool = 2
	}
	switch {
	case cfg.KeepAliveInterval == 0:
		cfg.KeepAliveInterval = 30 * time.Second
	case cfg.KeepAliveInterval < 0:
		cfg.KeepAliveInterval = 0
	}
	cfg.SpillLimit = cmp.Or(cfg.SpillLimit, 1<<16)
	cfg.AckTimeout = cmp.Or(cfg.AckTimeout, 5*time.Second)
	cfg.ReplayInterval = cmp.Or(cfg.ReplayInterval, time.Second)
	cfg.BreakerThreshold = cmp.Or(cfg.BreakerThreshold, 3)
	cfg.BreakerCooldown = cmp.Or(cfg.BreakerCooldown, time.Second)
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	cfg.Clock = simclock.Or(cfg.Clock)
	return cfg, nil
}

// Edge terminates beacon sessions and forwards them over per-upstream
// trunk pools.
type Edge struct {
	cfg Config
	log *slog.Logger
	// sessions is the beacon endpoint; it tracks every beacon session and
	// relayed trunk.
	sessions beacon.Server

	pools []*Pool

	// streamID numbers every stream this edge originates (beacon
	// sessions and relayed commits alike); stream 0 is never used.
	streamID atomic.Uint64

	stopCh    chan struct{}
	stopOnce  sync.Once
	runnersWG sync.WaitGroup
}

// New returns a started Edge: every pool's trunk runners and replay
// loop are live. Callers own serving HTTP (see Tier) and must Close
// the edge when done.
func New(cfg Config) (*Edge, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	e := &Edge{
		cfg:    cfg,
		log:    cfg.Logger.With("tier", cfg.Name),
		stopCh: make(chan struct{}),
	}
	e.sessions = beacon.Server{
		Clock:             cfg.Clock,
		HandshakeTimeout:  HandshakeTimeout,
		KeepAliveInterval: cfg.KeepAliveInterval,
		MaxExposure:       maxExposure,
		MaxMessageSize:    maxMessageSize,
		Admit:             e.refusal,
		Shed:              e.shed,
		Serve:             e.serveSession,
		// The resumable close, with the backoff floor the beacon client
		// parses.
		DrainClose: wsproto.CloseError{Code: wsproto.CloseServiceRestart,
			Reason: "draining retry-after=" + retryAfterHint.String()},
		Logger:      e.log,
		Connections: cfg.Tel.Connections,
		Active:      cfg.Tel.SessionsActive,
		Upgrades:    cfg.Tel.Upgrades,
		Events:      cfg.Tel.Events,
	}
	for _, up := range cfg.Upstreams {
		e.pools = append(e.pools, newPool(e, up))
	}
	// Every pool exists before any of their goroutines runs; Close stops
	// and waits for them.
	for _, p := range e.pools {
		e.runnersWG.Add(len(p.trunks) + 1)
		for _, t := range p.trunks {
			go t.run()
		}
		go p.replayLoop()
	}
	return e, nil
}

// Config returns the configuration in effect, defaults filled in.
func (e *Edge) Config() Config { return e.cfg }

// Telemetry returns the tier's metrics registry.
func (e *Edge) Telemetry() *telemetry.Registry { return e.cfg.Telemetry }

// Beacon returns the edge's beacon endpoint. The router's trunk relay
// rides its tracking (Track, Untrack) like a beacon session.
func (e *Edge) Beacon() *beacon.Server { return &e.sessions }

// spillPending sums unacknowledged commits across every pool.
func (e *Edge) spillPending() int {
	n := 0
	for _, p := range e.pools {
		n += p.spillPending()
	}
	return n
}

// shed refuses a request admission turned away: 403 for a foreign
// origin, else 503 with the Retry-After hint.
func (e *Edge) shed(w http.ResponseWriter, reason string) {
	e.cfg.Tel.Sheds.With(reason).Inc()
	if reason == ShedOrigin {
		http.Error(w, "origin not allowed", http.StatusForbidden)
		return
	}
	w.Header().Set("Retry-After", strconv.Itoa(int(retryAfterHint/time.Second)))
	http.Error(w, e.cfg.Name+" "+reason, http.StatusServiceUnavailable)
}

// originAllowed applies the admission allowlist to an Origin header: a
// host that neither equals an entry nor is a subdomain of one is
// refused. An empty list admits all (ad iframes are cross-origin by
// design).
func (e *Edge) originAllowed(origin string) bool {
	if len(e.cfg.AllowedOrigins) == 0 {
		return true
	}
	if origin == "" {
		return false
	}
	host := origin
	if u, err := url.Parse(origin); err == nil && u.Hostname() != "" {
		host = u.Hostname()
	}
	for _, allowed := range e.cfg.AllowedOrigins {
		if strings.EqualFold(host, allowed) ||
			strings.HasSuffix(strings.ToLower(host), "."+strings.ToLower(allowed)) {
			return true
		}
	}
	return false
}

// refusal is the admission decision for a beacon request from origin:
// the shed reason, or "" to admit. It counts nothing, so both accept
// paths may ask.
func (e *Edge) refusal(origin string) string {
	switch {
	case e.sessions.Draining():
		return ShedDraining
	case e.cfg.MaxSessions > 0 && e.sessions.Tracked() >= e.cfg.MaxSessions:
		return ShedCapacity
	case e.spillPending() >= e.cfg.SpillLimit:
		// An upstream has been unreachable long enough to fill the spill
		// buffer; admitting more sessions would promise acks the edge may
		// not be able to keep.
		return ShedSpill
	case !e.originAllowed(origin):
		return ShedOrigin
	}
	return ""
}

// PoolFor returns the pool owning a session key: the hash of the
// nonce over the upstreams, in their configured order.
func (e *Edge) PoolFor(nonce string) *Pool {
	return e.pools[shardmerge.ShardFor(nonce, len(e.pools))]
}

// NextStream allocates a stream ID on this edge's trunk wire.
func (e *Edge) NextStream() uint64 { return e.streamID.Add(1) }

// PoolHealth is one pool's slice of a Health snapshot.
type PoolHealth struct {
	ShardID       int // the pool's index among the upstreams
	TrunksTotal   int
	TrunksHealthy int
	SpillPending  int
}

// Health is the edge's /healthz report with the per-pool numbers it was
// made from. Its checks are one upstream_<i> per pool (value: healthy
// trunks, limit: trunks) and spill_pending, which decides nothing.
// Status is "ok" with every trunk of every pool up, "degraded" with
// some trunks down but every upstream reachable, and "unhealthy" when
// some pool has no healthy trunk: its commits are spilling, and nothing
// can re-home them, because placement is the hash, not the topology.
type Health struct {
	telemetry.Health
	Pools        []PoolHealth
	SpillPending int
}

// Health reports the edge's degradation level.
func (e *Edge) Health() Health {
	h := Health{Health: telemetry.Health{ID: e.cfg.ID}}
	for i, p := range e.pools {
		ph := PoolHealth{
			ShardID:       i,
			TrunksTotal:   len(p.trunks),
			TrunksHealthy: p.healthyTrunks(),
			SpillPending:  p.spillPending(),
		}
		c := telemetry.Check{Status: telemetry.HealthOK, Value: float64(ph.TrunksHealthy), Limit: float64(ph.TrunksTotal),
			Detail: "healthy trunks to " + p.url}
		switch {
		case ph.TrunksHealthy == 0:
			c.Status = telemetry.HealthUnhealthy
		case ph.TrunksHealthy < ph.TrunksTotal:
			c.Status = telemetry.HealthDegraded
		}
		h.Add("upstream_"+strconv.Itoa(i), c)
		h.SpillPending += ph.SpillPending
		h.Pools = append(h.Pools, ph)
	}
	h.Add("spill_pending", telemetry.Check{Status: telemetry.HealthOK, Value: float64(h.SpillPending),
		Detail: "commits awaiting an upstream ack"})
	return h
}

// Tier is the edge as the daemon shell serves it: the beacon endpoint,
// the metrics, the drain and the /healthz report. A tier package adds
// its routes and serves it with daemon.New.
func (e *Edge) Tier() daemon.Tier {
	return daemon.Tier{
		Name:      e.cfg.Name,
		Beacon:    &e.sessions,
		Telemetry: e.cfg.Telemetry,
		Drain:     e.Drain,
		Health:    func() telemetry.Health { return e.Health().Health },
		Close:     e.Close,
	}
}

// Drain hands every live session back with the resumable close (1012 +
// retry-after) — each still spills its commit — and sheds new ones, then
// waits up to grace, on the endpoint's clock, for every spill buffer to
// empty. It returns the number of commits still unacknowledged when the
// grace expired: 0 means every impression this edge acked to a client
// reached its collector.
func (e *Edge) Drain(grace time.Duration) int {
	clk := e.sessions.Clock
	deadline := clk.Now().Add(grace)
	e.sessions.Drain(grace)
	// A session untracks itself only after its commit is spilled, so with
	// the sessions gone an empty spill means nothing acked is undelivered.
	tick := clk.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for e.spillPending() > 0 && clk.Now().Before(deadline) {
		<-tick.C()
	}
	left := e.spillPending()
	if left > 0 {
		e.log.Warn("edge: drain deadline hit with unflushed commits", "pending", left)
	}
	return left
}

// Close stops every pool's trunk runners and replay loop, which close
// their trunk connections on the way out, and waits for them. Pending
// spill entries are abandoned; call Drain first for a zero-loss
// shutdown.
func (e *Edge) Close() {
	e.stopOnce.Do(func() { close(e.stopCh) })
	e.runnersWG.Wait()
}
