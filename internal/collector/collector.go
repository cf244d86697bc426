// Package collector implements the paper's central measurement server
// (§3): it terminates the beacons' WebSocket connections on the shared
// beacon endpoint (beacon.Server: admission, upgrade, tracking, the
// session loop and drain) and edge trunks on the shared receiver
// (trunk.Receiver), parses the impression payloads, derives the
// connection-side facts the client cannot forge — peer IP address,
// impression timestamp (connection establishment) and exposure time
// (connection duration) — enriches the record with IP metadata (ISP,
// country, data-center verdict) and then anonymises the address before
// the record reaches the store.
//
// The same enrichment pipeline is reachable without a socket through
// Ingest, which the campaign simulator uses to replay large synthetic
// workloads on a virtual clock; the WebSocket path and the direct path
// converge on identical store records.
//
// The collector is self-measuring: every ingest stage (upgrade, payload
// decode, ipmeta enrichment, store insert) reports its latency to an
// internal/telemetry registry, sessions report lifecycle events
// (concurrent count, close reasons, keepalive failures, exposure
// distribution), and rejects are classified by failure class. The
// registry is exposed over /metrics and /api/metrics by Server.
package collector

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/ipmeta"
	"adaudit/internal/simclock"
	"adaudit/internal/store"
	"adaudit/internal/telemetry"
	"adaudit/internal/trace"
	"adaudit/internal/trunk"
	"adaudit/internal/wsproto"
)

// Config assembles a Collector.
type Config struct {
	// Store receives enriched impression records. Required.
	Store *store.Store
	// IPDB resolves client addresses to ISP/country metadata. Optional;
	// unresolved addresses yield empty ISP/Country.
	IPDB *ipmeta.DB
	// Classifier runs the data-center fraud cascade on client
	// addresses. Optional; when nil every record is "not-data-center".
	Classifier *ipmeta.Classifier
	// Anonymizer pseudonymises client IPs. Required: the paper's
	// methodology never stores raw addresses.
	Anonymizer *ipmeta.Anonymizer
	// MaxMessageSize bounds beacon messages (default 16 KiB).
	MaxMessageSize int64
	// MaxExposure caps a single connection's lifetime so an abandoned
	// browser tab cannot hold a socket forever (default 30 minutes, the
	// session horizon; exposure is clamped to this).
	MaxExposure time.Duration
	// HandshakeTimeout bounds how long a connection may sit idle before
	// sending its initial payload (default 10 s).
	HandshakeTimeout time.Duration
	// KeepAliveInterval pings idle beacon sessions and drops peers that
	// stop answering within two intervals (beacon.Server). Default 30 s;
	// negative disables.
	KeepAliveInterval time.Duration
	// TrunkToken, when set, is the shared secret an edge gateway must
	// present (in the trunk.TokenHeader header) to open a trunk
	// connection on /trunk. Empty leaves the endpoint open — fine for
	// tests and single-host deployments, not for a public collector.
	TrunkToken string
	// MaxSessions caps concurrent beacon sessions. At the cap new
	// beacon requests are shed with a fast HTTP 503 (plus a Retry-After
	// hint) before the WebSocket upgrade spends any further resources —
	// an overloaded collector degrades into bounded, retryable refusals
	// instead of collapsing under its own sockets. 0 disables the cap.
	MaxSessions int
	// Logger receives operational events; defaults to slog.Default().
	Logger *slog.Logger
	// Telemetry is the metrics registry the collector registers its
	// instruments on (and instruments its store with). Nil creates a
	// private registry, so metrics always work; share one registry
	// across components to get a single exposition.
	Telemetry *telemetry.Registry
	// DisableTelemetry turns off all instrumentation, including the
	// per-stage clock reads. The Metrics field API keeps working
	// (backed by unregistered counters). Intended for overhead
	// benchmarking and minimal embeddings.
	DisableTelemetry bool
	// Clock supplies the time for every duration the collector
	// measures or enforces — session establishment, exposure, keepalive
	// scheduling, handshake and drain timeouts. Nil means the real
	// clock; internal/simtest substitutes a virtual one so session
	// timing runs deterministically.
	Clock simclock.Clock
	// Tracer samples impressions for end-to-end pipeline tracing: the
	// collector adopts trace context arriving in beacon payloads and
	// threads the trace through decode, enrichment, store commit and
	// the change feed into its flight recorder. Nil disables tracing;
	// unsampled impressions pay only nil checks. Trace stage offsets
	// always use the real monotonic clock (they measure the pipeline
	// itself), independent of Clock.
	Tracer *trace.Tracer
}

// Metrics are the collector's liveness counters. Historically these
// were bespoke atomics; they are now thin handles onto registry-backed
// counters, so `c.Metrics.Ingested.Load()` and the Prometheus series
// `adaudit_collector_ingested_total` read the same cell.
type Metrics struct {
	// Connections counts accepted WebSocket connections.
	Connections *telemetry.Counter
	// Ingested counts impressions committed to the store.
	Ingested *telemetry.Counter
	// Rejected counts all rejects regardless of class: connections
	// dropped before a valid payload, store-insert failures, bad
	// conversions. Per-class counts are on the registry under
	// adaudit_collector_rejects_total{class=...}.
	Rejected *telemetry.Counter
	// Events counts interaction events received, in opening payloads
	// and as updates.
	Events *telemetry.Counter
	// Conversions counts conversion-pixel records committed.
	Conversions *telemetry.Counter
}

// Reject classes used for adaudit_collector_rejects_total{class=...}.
// Decode/handshake failures and store-insert failures are different
// operational signals: the former blames the peer (or the network), the
// latter blames the collector's own pipeline.
const (
	RejectDecode       = beacon.FailDecode   // payload failed to parse
	RejectPayload      = "payload"           // payload parsed but unusable (bad page URL)
	RejectInsert       = "insert"            // store refused the record
	RejectPeerAddr     = beacon.FailPeerAddr // unresolvable remote address
	RejectUpgrade      = beacon.FailUpgrade  // HTTP → WebSocket upgrade failed
	RejectConvDecode   = "conv-decode"       // conversion query string failed to parse
	RejectConvValidate = "conv-validate"     // conversion payload incomplete
	RejectConvInsert   = "conv-insert"       // store refused the conversion
	RejectConvPeerAddr = "conv-peer-addr"    // unresolvable pixel peer address
	RejectTrunkAuth    = "trunk-auth"        // gateway presented a bad trunk token
	RejectTrunkProto   = "trunk-proto"       // malformed trunk frame or batch
)

// sampleInterval is the stage-timing sampling rate on the direct ingest
// path (power of two): a clock read costs tens of nanoseconds, so
// timing every enrich stage would dominate the telemetry budget at the
// paper's 160K-impression replay rate. Ticks 1, 1+sampleInterval, ...
// are measured — the first ingest always lands in the histogram.
// Counters are never sampled; only stage latency is. The per-session
// timings (upgrade, decode) stay unsampled: they are amortised over a
// whole WebSocket connection.
const sampleInterval = 8

// collectorTelemetry bundles the registry-backed instruments beyond the
// legacy Metrics counters. All fields are nil-safe; enabled gates the
// clock reads so DisableTelemetry removes the hot-path cost entirely.
type collectorTelemetry struct {
	enabled         bool
	rejects         *telemetry.CounterVec
	sessionsActive  *telemetry.Gauge
	sessionsClosed  *telemetry.CounterVec
	droppedShutdown *telemetry.Counter
	pingFailures    *telemetry.Counter
	sheds           *telemetry.Counter
	panics          *telemetry.Counter
	dedupHits       *telemetry.Counter
	partialCommits  *telemetry.Counter
	trunksActive    *telemetry.Gauge
	trunkFrames     *telemetry.CounterVec
	trunkDuplicates *telemetry.Counter
	exposure        *telemetry.Histogram
	upgrade         *telemetry.Histogram
	upgrades        *telemetry.CounterVec
	decode          *telemetry.Histogram
	enrich          *telemetry.Histogram
}

// Collector terminates beacon traffic and writes impression records.
type Collector struct {
	cfg   Config
	clock simclock.Clock
	// sessions is the beacon endpoint and tracks every beacon session and
	// gateway trunk; trunks runs every gateway trunk.
	sessions beacon.Server
	trunks   trunk.Receiver
	// Metrics exposes ingest counters for health checks and tests.
	Metrics Metrics

	reg *telemetry.Registry
	tel collectorTelemetry

	// lastIngest is the unix-nano time of the last committed record
	// (impression or conversion); /healthz alarms on its age.
	lastIngest atomic.Int64

	// sampleTick selects which ingests get enrich-stage timing; see
	// sampleInterval.
	sampleTick atomic.Uint64

	// icache holds the bounded ingest caches (interned wire strings,
	// address → enrichment, user keys) that make steady-state ingest
	// allocation-free.
	icache *ingestCache
}

// New validates cfg and returns a Collector.
func New(cfg Config) (*Collector, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("collector: config requires a store")
	}
	if cfg.Anonymizer == nil {
		return nil, fmt.Errorf("collector: config requires an anonymizer")
	}
	if cfg.MaxMessageSize == 0 {
		cfg.MaxMessageSize = 16 << 10
	}
	if cfg.MaxExposure == 0 {
		cfg.MaxExposure = 30 * time.Minute
	}
	if cfg.HandshakeTimeout == 0 {
		cfg.HandshakeTimeout = 10 * time.Second
	}
	switch {
	case cfg.KeepAliveInterval == 0:
		cfg.KeepAliveInterval = 30 * time.Second
	case cfg.KeepAliveInterval < 0:
		cfg.KeepAliveInterval = 0
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	reg := cfg.Telemetry
	if cfg.DisableTelemetry {
		reg = nil
	} else if reg == nil {
		reg = telemetry.NewRegistry()
	}
	c := &Collector{
		cfg:    cfg,
		clock:  simclock.Or(cfg.Clock),
		icache: newIngestCache(),
		reg:    reg,
	}
	// With a nil registry these come back unregistered but functional,
	// so the Metrics field API never breaks.
	c.Metrics = Metrics{
		Connections: reg.Counter("adaudit_collector_connections_total",
			"WebSocket beacon connections accepted.", nil),
		Ingested: reg.Counter("adaudit_collector_ingested_total",
			"Impressions committed to the store.", nil),
		Rejected: reg.Counter("adaudit_collector_rejected_total",
			"Rejects across all classes (see adaudit_collector_rejects_total).", nil),
		Events: reg.Counter("adaudit_collector_events_total",
			"Interaction events received, in opening payloads and as updates.", nil),
		Conversions: reg.Counter("adaudit_collector_conversions_total",
			"Conversion-pixel records committed.", nil),
	}
	if reg != nil {
		c.tel = collectorTelemetry{
			enabled: true,
			rejects: reg.CounterVec("adaudit_collector_rejects_total",
				"Rejects by failure class.", "class"),
			sessionsActive: reg.Gauge("adaudit_collector_sessions_active",
				"Beacon sessions currently open.", nil),
			sessionsClosed: reg.CounterVec("adaudit_collector_sessions_closed_total",
				"Beacon sessions ended, by close reason.", "reason"),
			droppedShutdown: reg.Counter("adaudit_collector_sessions_dropped_shutdown_total",
				"Sessions still open when the shutdown grace period expired.", nil),
			pingFailures: reg.Counter("adaudit_collector_keepalive_failures_total",
				"Keepalive pings that could not be written.", nil),
			sheds: reg.Counter("adaudit_collector_sheds_total",
				"Beacon requests refused with 503 at the session cap.", nil),
			panics: reg.Counter("adaudit_collector_session_panics_total",
				"Beacon session goroutines recovered from a panic.", nil),
			dedupHits: reg.Counter("adaudit_collector_dedup_hits_total",
				"Reconnected sessions merged into their original impression by nonce.", nil),
			partialCommits: reg.Counter("adaudit_collector_partial_commits_total",
				"Impressions committed from sessions that ended abnormally.", nil),
			trunksActive: reg.Gauge("adaudit_collector_trunks_active",
				"Gateway trunk connections currently open.", nil),
			trunkFrames: reg.CounterVec("adaudit_collector_trunk_frames_total",
				"Trunk frames received from gateways, by frame type.", "type"),
			trunkDuplicates: reg.Counter("adaudit_collector_trunk_duplicates_total",
				"Replayed legs the store dropped: a trunk commit or beacon connection whose nonce and leg it had already counted.", nil),
			exposure: reg.Histogram("adaudit_collector_exposure_seconds",
				"Measured ad-exposure durations (connection lifetimes).",
				telemetry.ExposureBuckets(), nil),
			upgrade: reg.Histogram("adaudit_collector_upgrade_seconds",
				"HTTP → WebSocket upgrade latency.",
				telemetry.LatencyBuckets(), nil),
			upgrades: reg.CounterVec("adaudit_collector_upgrades_total",
				"Beacon upgrades completed, by what answered them: the accepting front in place, or net/http.", "via"),
			decode: reg.Histogram("adaudit_collector_decode_seconds",
				"Beacon payload decode latency.",
				telemetry.LatencyBuckets(), nil),
			enrich: reg.Histogram("adaudit_collector_enrich_seconds",
				"IP metadata enrichment latency (LPM lookup, fraud cascade, pseudonymisation).",
				telemetry.LatencyBuckets(), nil),
		}
		cfg.Store.Instrument(reg)
		cfg.Tracer.Recorder().Instrument(reg)
	}
	c.sessions = beacon.Server{
		Clock:             c.clock,
		HandshakeTimeout:  cfg.HandshakeTimeout,
		KeepAliveInterval: cfg.KeepAliveInterval,
		MaxExposure:       cfg.MaxExposure,
		MaxMessageSize:    cfg.MaxMessageSize,
		// Interned, as IngestBinary decodes: nothing aliases the frame.
		DecodeBinary: c.icache.decodeBinary,
		Admit:        c.admit,
		Shed:         c.shed,
		Serve:        c.serveSession,
		Refused:      c.refused,
		DrainClose:   wsproto.CloseError{Code: wsproto.CloseGoingAway, Reason: "collector shutting down"},
		Logger:       cfg.Logger,
		Connections:  c.Metrics.Connections,
		Active:       c.tel.sessionsActive,
		Upgrades:     c.tel.upgrades,
		Upgrade:      c.tel.upgrade,
		Decode:       c.tel.decode,
		Events:       c.Metrics.Events,
		PingFailures: c.tel.pingFailures,
		Dropped:      c.tel.droppedShutdown,
	}
	// Every trunk refusal is one trunk-proto reject. Replies are left
	// unbounded: a stalled gateway parks only its trunk, until a drain.
	c.trunks = trunk.Receiver{
		Clock:            c.clock,
		HandshakeTimeout: cfg.HandshakeTimeout,
		Refused: func(p *trunk.Peer, _ string, err error) {
			c.reject(RejectTrunkProto)
			if err != nil {
				cfg.Logger.Warn("collector: malformed trunk batch", "gateway", p.ID, "err", err)
			}
		},
	}
	return c, nil
}

// Telemetry returns the collector's metrics registry (nil when built
// with DisableTelemetry).
func (c *Collector) Telemetry() *telemetry.Registry { return c.reg }

// Tracer returns the collector's pipeline tracer (nil when tracing is
// disabled).
func (c *Collector) Tracer() *trace.Tracer { return c.cfg.Tracer }

// LastIngest returns the commit time of the most recent record, or the
// zero time if nothing has been ingested yet.
func (c *Collector) LastIngest() time.Time {
	n := c.lastIngest.Load()
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n)
}

// SessionCount returns the number of live beacon sessions and trunks.
func (c *Collector) SessionCount() int { return c.sessions.Tracked() }

// reject records one reject of the given class on both the legacy
// aggregate counter and the per-class series.
func (c *Collector) reject(class string) {
	c.Metrics.Rejected.Add(1)
	c.tel.rejects.With(class).Inc()
}

// Observation is one impression as seen at the network edge, before
// enrichment: the decoded payload plus the connection-derived facts.
type Observation struct {
	Payload beacon.Payload
	// Publisher, when non-empty, is the pre-extracted publisher for
	// Payload.PageURL — a fast path for callers that already resolved
	// it. Empty means Ingest derives it from the page URL.
	Publisher string
	// RemoteIP is the peer address of the beacon connection.
	RemoteIP netip.Addr
	// ConnectedAt is the connection-establishment time — the paper's
	// impression timestamp.
	ConnectedAt time.Time
	// Exposure is the connection duration.
	Exposure time.Duration
	// Trace is the impression's pipeline trace (nil when unsampled).
	// The WebSocket path adopts it from the payload at decode time;
	// direct callers may start one themselves. Ingest threads it
	// through enrichment and the store.
	Trace *trace.Trace
}

// adoptTrace materialises a trace for payload-borne trace context —
// the fallback for direct-path observations whose caller did not
// adopt one itself. Returns nil for untraced payloads.
func (c *Collector) adoptTrace(p beacon.Payload) *trace.Trace {
	if c.cfg.Tracer == nil || p.TraceID == "" {
		return nil
	}
	id, err := trace.ParseID(p.TraceID)
	if err != nil {
		return nil
	}
	return c.cfg.Tracer.Adopt(id, p.TraceSent)
}

// Ingest enriches obs and commits it to the store. This is the single
// funnel both the WebSocket path and the simulator's direct path use.
// The store counts each leg of a nonce once (store.CommitLeg): a later
// leg merges into the record (exposure is total connection time), a
// leg counted already changes nothing. The ID is the record's.
func (c *Collector) Ingest(obs Observation) (int64, error) {
	id, _, err := c.ingest(obs)
	return id, err
}

// ingest is Ingest, also saying what the store did with the leg.
func (c *Collector) ingest(obs Observation) (int64, store.LegOutcome, error) {
	tr := obs.Trace
	if tr == nil {
		tr = c.adoptTrace(obs.Payload)
	}
	// Both wires admit arbitrary bytes, and every JSON surface (the
	// query API, the reports) writes invalid UTF-8 as U+FFFD: left as
	// received, a record would read back with another user key and
	// nonce than the one acknowledged. Replace once, here, so memory,
	// journal, snapshot, nonce table and every reader hold the same
	// strings (a valid string — the ordinary case — is returned as is).
	for _, s := range [...]*string{
		&obs.Payload.CampaignID, &obs.Payload.CreativeID, &obs.Payload.PageURL,
		&obs.Payload.UserAgent, &obs.Payload.Nonce, &obs.Publisher,
	} {
		*s = strings.ToValidUTF8(*s, "\ufffd")
	}
	pub := obs.Publisher
	if pub == "" {
		var err error
		pub, err = obs.Payload.Publisher()
		if err != nil {
			c.reject(RejectPayload)
			tr.Truncate("reject:" + RejectPayload)
			return 0, 0, fmt.Errorf("collector: extracting publisher: %w", err)
		}
	}
	tr.Annotate(obs.Payload.Nonce, obs.Payload.CampaignID)
	if obs.Exposure < 0 {
		obs.Exposure = 0
	}
	if obs.Exposure > c.cfg.MaxExposure {
		obs.Exposure = c.cfg.MaxExposure
	}

	moves, clicks := 0, 0
	visMeasured := false
	maxVis := 0.0
	for _, e := range obs.Payload.Events {
		switch e.Kind {
		case beacon.EventMouseMove:
			moves++
		case beacon.EventClick:
			clicks++
		case beacon.EventVisibility:
			visMeasured = true
			if e.Fraction > maxVis {
				maxVis = e.Fraction
			}
		}
	}

	var enrichStart time.Time
	sampled := c.tel.enabled && c.sampleTick.Add(1)&(sampleInterval-1) == 1
	if sampled {
		enrichStart = c.clock.Now()
	}
	enr := c.enrichFor(obs.RemoteIP)
	if sampled {
		c.tel.enrich.ObserveDuration(c.clock.Since(enrichStart))
		if id := tr.ID(); id != 0 {
			c.tel.enrich.SetExemplar(uint64(id))
		}
	}
	tr.Stage(trace.StageEnrich)

	im := store.Impression{
		CampaignID:  obs.Payload.CampaignID,
		CreativeID:  obs.Payload.CreativeID,
		Publisher:   pub,
		PageURL:     obs.Payload.PageURL,
		UserAgent:   obs.Payload.UserAgent,
		IPPseudonym: enr.pseud,
		UserKey:     c.userKeyFor(enr.pseud, obs.Payload.UserAgent),
		ISP:         enr.isp,
		Country:     enr.country,
		DataCenter:  enr.dataCenter,
		Nonce:       obs.Payload.Nonce,
		Timestamp:   obs.ConnectedAt,
		Exposure:    obs.Exposure,
		MouseMoves:  moves,
		Clicks:      clicks,

		VisibilityMeasured: visMeasured,
		MaxVisibleFraction: maxVis,
	}
	id, outcome, err := c.cfg.Store.CommitLeg(im, obs.Payload.Leg, tr)
	if err != nil {
		c.reject(RejectInsert)
		return 0, 0, fmt.Errorf("collector: storing impression: %w", err)
	}
	switch outcome {
	case store.LegMerged:
		c.tel.dedupHits.Inc()
		return id, outcome, nil
	case store.LegReplayed:
		c.tel.trunkDuplicates.Inc()
		return id, outcome, nil
	}
	c.Metrics.Ingested.Add(1)
	if sampled {
		// Reusing enrichStart keeps the unsampled path free of clock
		// reads; the server's health probe covers the gap between
		// samples by watching the ingest counters change (see
		// Server.lastIngestAge).
		c.lastIngest.Store(enrichStart.UnixNano())
	}
	return id, outcome, nil
}

// payloadPool recycles decode targets for decodePooled: a caller
// borrows a Payload, decodes into it (reusing its Events capacity),
// ingests, and returns it. Safe because the store never retains the
// Events slice and every retained string is either interned or freshly
// copied.
var payloadPool = sync.Pool{New: func() any { return new(beacon.Payload) }}

// decodePooled decodes one binary impression message into a pooled
// payload through the intern tables: the one decode of IngestBinary and
// of trunk commits. The caller puts the payload back in payloadPool once
// it is ingested; a decode error is counted here and leaves nothing to
// put back.
func (c *Collector) decodePooled(raw []byte) (*beacon.Payload, error) {
	p := payloadPool.Get().(*beacon.Payload)
	if err := c.icache.decodeBinary(p, raw); err != nil {
		payloadPool.Put(p)
		c.reject(RejectDecode)
		return nil, err
	}
	return p, nil
}

// IngestBinary decodes one binary impression message (see
// beacon.DecodeBinary for the format) and ingests it through the same
// funnel as Ingest. The decode goes through a pooled payload and the
// collector's intern tables, so the steady-state path — hot campaign,
// known URL, seen address — allocates nothing. This is the
// direct-path twin of a binary WebSocket session, used by the
// simulator's binary-wire replay.
func (c *Collector) IngestBinary(raw []byte, remoteIP netip.Addr, connectedAt time.Time, exposure time.Duration) (int64, error) {
	p, err := c.decodePooled(raw)
	if err != nil {
		return 0, fmt.Errorf("collector: decoding binary payload: %w", err)
	}
	defer payloadPool.Put(p)
	return c.Ingest(Observation{
		Payload:     *p,
		RemoteIP:    remoteIP,
		ConnectedAt: connectedAt,
		Exposure:    exposure,
	})
}

// admit is the beacon endpoint's admission: a request is shed at the
// session cap, before the upgrade spends anything on it.
func (c *Collector) admit(string) string {
	if max := c.cfg.MaxSessions; max > 0 && c.sessions.Tracked() >= max {
		return "capacity"
	}
	return ""
}

// shed refuses a request at the session cap: a plain 503 costs a few
// hundred bytes and no goroutine, and a well-behaved beacon retries with
// backoff — bounded refusals instead of unbounded sockets.
func (c *Collector) shed(w http.ResponseWriter, _ string) {
	c.tel.sheds.Inc()
	w.Header().Set("Retry-After", "1")
	http.Error(w, "collector at session capacity", http.StatusServiceUnavailable)
}

// refused counts a beacon connection that failed: a panic on its own
// series, anything else as a reject of its class.
func (c *Collector) refused(class string, _ error) {
	if class == beacon.FailPanic {
		c.tel.panics.Inc()
		return
	}
	c.reject(class)
}

// serveSession is an opened beacon session at the collector: the shared
// loop (beacon.Server) runs it, then its impression is committed. The
// impression timestamp and every session deadline come from the
// collector's clock, so on a virtual clock the whole session-timing path
// is deterministic.
func (c *Collector) serveSession(sess *beacon.ServerSession, remote netip.Addr) {
	// Events the opening payload already carries count like updates, as
	// they do when a trunk commit delivers them all at once.
	c.Metrics.Events.Add(int64(len(sess.Payload.Events)))
	// The nonce is the one payload string the store keeps per record
	// as it came (in the row and the nonce index); copied, it does not
	// pin the whole text message.
	if sess.Wire == beacon.WireText {
		sess.Payload.Nonce = strings.Clone(sess.Payload.Nonce)
	}
	// Adopt payload-borne trace context now, while the frame is fresh:
	// the wire_recv offset then measures actual transit, not transit
	// plus the session's whole exposure. The trace stays active for
	// the session's lifetime; the server's janitor sweeps traces whose
	// session leg died without committing.
	tr := c.adoptTrace(sess.Payload)
	tr.Stage(trace.StageDecode)
	tr.Annotate(sess.Payload.Nonce, sess.Payload.CampaignID)
	ctx := trace.ContextWithID(context.Background(), tr.ID())
	if tr != nil && c.tel.enabled {
		c.tel.decode.SetExemplar(uint64(tr.ID()))
	}
	end, exposure := sess.Run(func(err error) {
		c.cfg.Logger.DebugContext(ctx, "collector: bad event update", "err", err, "remote", remote)
	})
	c.tel.sessionsClosed.With(end).Inc()
	c.tel.exposure.ObserveDuration(exposure)
	if _, err := c.Ingest(Observation{
		Payload:     sess.Payload,
		RemoteIP:    remote,
		ConnectedAt: sess.ConnectedAt,
		Exposure:    exposure,
		Trace:       tr,
	}); err != nil {
		c.cfg.Logger.WarnContext(ctx, "collector: ingest failed", "err", err, "remote", remote)
	} else if end != beacon.EndPeer {
		// The session ended abnormally (reset, keepalive timeout,
		// exposure cap, drain) but its exposure up to that moment still
		// committed — the measurement the paper derives server-side
		// precisely so a dying client cannot lose it.
		c.tel.partialCommits.Inc()
	}
}

// UserKey derives the paper's user identity — the combination of IP
// (already pseudonymised) and User-Agent — as a stable opaque token.
func UserKey(ipPseudonym, userAgent string) string {
	return ipPseudonym + "|" + userAgent
}
