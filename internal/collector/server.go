package collector

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"adaudit/internal/streamaudit"
	"adaudit/internal/trace"
	"adaudit/internal/wsproto"
)

// serverOptions collects the tunables NewServer accepts as options, so
// existing NewServer(c, addr) call sites keep working unchanged.
type serverOptions struct {
	shutdownGrace time.Duration
	maxIngestAge  time.Duration
	checks        map[string]func() error
	listener      net.Listener
	liveEngine    *streamaudit.Engine
}

// ServerOption customises a Server.
type ServerOption func(*serverOptions)

// /healthz bounds no command has needed to tune.
const (
	// maxWALSyncLag is how long a journal entry may wait for its group
	// fsync (SyncGroup WALs only; SyncOS never goes dirty): far above
	// any healthy fsync, tight enough to catch a wedged disk or a dead
	// flusher. The measured lag is in the response either way.
	maxWALSyncLag = 30 * time.Second
	// maxAuditStaleness is how far of wall time the live streaming
	// engine may fall behind the change feed — the pipeline-freshness
	// SLO as a health check.
	maxAuditStaleness = 30 * time.Second
)

// WithMaxIngestAge makes /healthz report unhealthy (503) when no record
// has been committed for longer than d. Zero (the default) disables the
// check — correct for a collector that legitimately idles.
func WithMaxIngestAge(d time.Duration) ServerOption {
	return func(o *serverOptions) { o.maxIngestAge = d }
}

// WithHealthCheck adds a named check to /healthz; a non-nil error marks
// the server unhealthy and the message appears in the response. Used
// e.g. by cmd/auditd to verify the snapshot directory stays writable.
func WithHealthCheck(name string, fn func() error) ServerOption {
	return func(o *serverOptions) {
		if o.checks == nil {
			o.checks = map[string]func() error{}
		}
		o.checks[name] = fn
	}
}

// Server runs a Collector behind an HTTP listener with an operational
// sidecar: the beacon endpoint, the advertiser query API, and the
// telemetry surface — GET /metrics (Prometheus text), GET /api/metrics
// (JSON), GET /healthz (uptime, last-ingest age, custom checks). It
// owns listener lifecycle and graceful shutdown — in-flight beacon
// sessions are drained (bounded by the shutdown grace) so their
// impressions commit instead of dying with the process — so cmd/auditd
// and the examples share one hardened serving path.
type Server struct {
	collector *Collector
	httpSrv   *http.Server
	// front accepts on the listener ahead of httpSrv: it answers clean
	// beacon upgrades itself and passes every other connection on.
	front *wsproto.Front
	opts  serverOptions
	start time.Time
	live  *liveAPI

	// Ingest-age probe: the collector timestamps only sampled ingests
	// (its hot path avoids clock reads), so between samples the server
	// detects activity by watching the ingest counters move between
	// health/metrics reads.
	probeMu         sync.Mutex
	probeCount      int64
	probeLastChange time.Time

	// Feed-drop probe: the drop counter is monotonic, so /healthz flags
	// unhealthy only when drops advanced since the previous probe —
	// a one-scrape signal that live consumers are resyncing right now,
	// not a permanent stain from one historical overflow.
	dropMu     sync.Mutex
	probeDrops int64
	probedOnce bool
}

// HealthStatus is the /healthz response body.
type HealthStatus struct {
	Status string `json:"status"` // "ok" or "unhealthy"
	// UptimeSeconds is time since the server started.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// LastIngestAgeSeconds is time since the last committed record;
	// counted from server start while nothing has been ingested yet.
	// -1 when the collector runs without telemetry.
	LastIngestAgeSeconds float64 `json:"last_ingest_age_seconds"`
	// StoreRecords is the impression count, proving the store readable.
	StoreRecords int `json:"store_records"`
	// SessionsActive is the number of live beacon sessions.
	SessionsActive int `json:"sessions_active"`
	// FeedDrops is the cumulative count of change-feed subscribers
	// evicted for falling behind.
	FeedDrops int64 `json:"feed_drops"`
	// WALSyncLagSeconds is how long the oldest unsynced journal entry
	// has waited for its fsync (0 when clean or no WAL attached).
	WALSyncLagSeconds float64 `json:"wal_sync_lag_seconds"`
	// AuditStalenessSeconds is how far the live streaming-audit engine
	// lags the change feed in wall time; -1 without a live engine.
	AuditStalenessSeconds float64 `json:"audit_staleness_seconds"`
	// Checks maps check name to "ok" or the failure message.
	Checks map[string]string `json:"checks,omitempty"`
}

// WithLiveAudit mounts the streaming-audit endpoints (/api/live/summary,
// /api/live/audit/{campaign}, /api/live/stream) backed by e, and makes
// Serve own the engine's consumption loop: Run starts with the server
// and is cancelled only after the beacon drain, so the final report
// reflects every impression that committed before shutdown.
func WithLiveAudit(e *streamaudit.Engine) ServerOption {
	return func(o *serverOptions) { o.liveEngine = e }
}

// WithListener serves on ln instead of opening a fresh TCP listener
// (addr is then ignored) — the hook fault-injection tests use to put an
// impaired accept path (internal/faultnet.Plan.Listen) under the
// collector.
func WithListener(ln net.Listener) ServerOption {
	return func(o *serverOptions) { o.listener = ln }
}

// NewServer wraps c in a Server listening on addr (host:port; port 0
// picks a free port).
func NewServer(c *Collector, addr string, opts ...ServerOption) (*Server, error) {
	o := serverOptions{shutdownGrace: 5 * time.Second}
	for _, opt := range opts {
		opt(&o)
	}
	ln := o.listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("collector: listening on %s: %w", addr, err)
		}
	}
	s := &Server{
		collector: c,
		front:     wsproto.NewFront(ln, map[string]wsproto.Route{"/beacon": c.beaconRoute()}),
		opts:      o,
		start:     time.Now(),
	}
	mux := http.NewServeMux()
	mux.Handle("/beacon", c)
	mux.HandleFunc("/trunk", c.ServeTrunk)
	mux.HandleFunc("/conv", c.ServeConversionPixel)
	(&queryAPI{st: c.cfg.Store}).register(mux)
	if o.liveEngine != nil {
		s.live = newLiveAPI(o.liveEngine)
		s.live.register(mux)
	}
	mux.HandleFunc("/healthz", s.serveHealthz)
	if t := c.Tracer(); t != nil {
		if rec := t.Recorder(); rec != nil {
			trace.RegisterAPI(mux, rec)
		}
	}
	if reg := c.Telemetry(); reg != nil {
		reg.GaugeFunc("adaudit_collector_uptime_seconds",
			"Time since the collector server started.", nil,
			func() float64 { return time.Since(s.start).Seconds() })
		reg.GaugeFunc("adaudit_collector_last_ingest_age_seconds",
			"Time since the last committed record (since start while idle).", nil,
			func() float64 { return s.lastIngestAge().Seconds() })
		mux.Handle("/metrics", reg.Handler())
		mux.Handle("/api/metrics", reg.JSONHandler())
	}
	s.httpSrv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: wsproto.HeadTimeout,
	}
	return s, nil
}

// lastIngestAge measures idle time: since the last committed record, or
// since server start while nothing has been ingested yet. The estimate
// combines the collector's sampled ingest timestamps with a
// counter-change probe, so its error is bounded by the probe-read
// interval (the health/metrics scrape cadence), not the sampling rate.
func (s *Server) lastIngestAge() time.Duration {
	now := time.Now()
	s.probeMu.Lock()
	count := s.collector.Metrics.Ingested.Load() + s.collector.Metrics.Conversions.Load()
	if count != s.probeCount {
		s.probeCount = count
		s.probeLastChange = now
	}
	probed := s.probeLastChange
	s.probeMu.Unlock()
	last := s.collector.LastIngest()
	if probed.After(last) {
		last = probed
	}
	if last.IsZero() {
		last = s.start
	}
	return now.Sub(last)
}

// feedDropsSince returns how many change-feed subscribers were
// dropped since the previous health probe. The first probe reports 0:
// drops that predate any observation window belong to no probe.
func (s *Server) feedDropsSince(total int64) int64 {
	s.dropMu.Lock()
	defer s.dropMu.Unlock()
	fresh := total - s.probeDrops
	if !s.probedOnce {
		s.probedOnce = true
		fresh = 0
	}
	s.probeDrops = total
	if fresh < 0 {
		fresh = 0
	}
	return fresh
}

// failCheck records a failed built-in health check on st.
func (s *Server) failCheck(st *HealthStatus, name, msg string) {
	if st.Checks == nil {
		st.Checks = map[string]string{}
	}
	st.Checks[name] = msg
	st.Status = "unhealthy"
}

// okCheck records a passing built-in health check on st.
func (s *Server) okCheck(st *HealthStatus, name string) {
	if st.Checks == nil {
		st.Checks = map[string]string{}
	}
	st.Checks[name] = "ok"
}

func (s *Server) serveHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	st := HealthStatus{
		Status:                "ok",
		UptimeSeconds:         time.Since(s.start).Seconds(),
		StoreRecords:          s.collector.cfg.Store.Len(),
		SessionsActive:        s.collector.SessionCount(),
		AuditStalenessSeconds: -1,
	}
	if s.collector.Telemetry() != nil {
		age := s.lastIngestAge()
		st.LastIngestAgeSeconds = age.Seconds()
		if s.opts.maxIngestAge > 0 && age > s.opts.maxIngestAge {
			st.Status = "unhealthy"
		}
	} else {
		st.LastIngestAgeSeconds = -1
	}
	st.FeedDrops = s.collector.cfg.Store.FeedDrops()
	if fresh := s.feedDropsSince(st.FeedDrops); fresh > 0 {
		s.failCheck(&st, "feed_subscribers",
			fmt.Sprintf("%d change-feed subscriber(s) dropped since last probe (consumers resyncing)", fresh))
	} else {
		s.okCheck(&st, "feed_subscribers")
	}
	walLag := s.collector.cfg.Store.WALDirtyDuration()
	st.WALSyncLagSeconds = walLag.Seconds()
	if walLag > maxWALSyncLag {
		s.failCheck(&st, "wal_sync",
			fmt.Sprintf("oldest unsynced journal entry is %.1fs old (max %v)", walLag.Seconds(), maxWALSyncLag))
	} else {
		s.okCheck(&st, "wal_sync")
	}
	if s.opts.liveEngine != nil {
		stale := s.opts.liveEngine.Staleness()
		st.AuditStalenessSeconds = stale.Seconds()
		if stale > maxAuditStaleness {
			s.failCheck(&st, "audit_freshness",
				fmt.Sprintf("streaming audit is %.1fs behind the change feed (max %v)", stale.Seconds(), maxAuditStaleness))
		} else {
			s.okCheck(&st, "audit_freshness")
		}
	}
	for name, fn := range s.opts.checks {
		if st.Checks == nil {
			st.Checks = map[string]string{}
		}
		if err := fn(); err != nil {
			st.Checks[name] = err.Error()
			st.Status = "unhealthy"
		} else {
			st.Checks[name] = "ok"
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if st.Status != "ok" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(st)
}

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr { return s.front.Addr() }

// BeaconURL returns the ws:// URL beacons should dial.
func (s *Server) BeaconURL() string {
	return fmt.Sprintf("ws://%s/beacon", s.front.Addr().String())
}

// Serve blocks serving requests until ctx is cancelled, then shuts down
// gracefully: live SSE subscribers are closed first (a long-lived
// stream would otherwise pin http.Server.Shutdown until its timeout),
// then the listener closes, in-flight beacon sessions are asked to
// commit and drained for up to the shutdown grace (sessions still open
// after that are counted as dropped — the paper's §3.1 loss model), and
// finally the streaming-audit engine is stopped, after the drain, so it
// applies every impression that committed before teardown.
func (s *Server) Serve(ctx context.Context) error {
	// Flight-recorder janitor: a trace is live for its whole beacon
	// session, so only ages beyond MaxExposure (plus slack) indicate a
	// leg that died without a commit — truncate those as "stale" so the
	// active map stays bounded and orphan spans become visible instead
	// of lingering forever.
	if t := s.collector.Tracer(); t != nil {
		if rec := t.Recorder(); rec != nil {
			staleAfter := s.collector.cfg.MaxExposure + 5*time.Minute
			stop := make(chan struct{})
			defer close(stop)
			go func() {
				tick := time.NewTicker(30 * time.Second)
				defer tick.Stop()
				for {
					select {
					case <-stop:
						return
					case <-tick.C:
						rec.SweepStale(staleAfter)
					}
				}
			}()
		}
	}
	var engineDone chan struct{}
	var engineCancel context.CancelFunc
	if s.live != nil {
		var engineCtx context.Context
		engineCtx, engineCancel = context.WithCancel(context.Background())
		engineDone = make(chan struct{})
		go func() {
			defer close(engineDone)
			s.live.engine.Run(engineCtx)
		}()
	}
	stopEngine := func() {
		if engineCancel != nil {
			engineCancel()
			<-engineDone
		}
	}
	errCh := make(chan error, 1)
	go func() {
		errCh <- s.httpSrv.Serve(s.front)
	}()
	select {
	case <-ctx.Done():
		if s.live != nil {
			s.live.shutdown()
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.httpSrv.Shutdown(shutdownCtx)
		s.collector.Drain(s.opts.shutdownGrace)
		_ = s.httpSrv.Close()
		<-errCh
		stopEngine()
		return nil
	case err := <-errCh:
		if s.live != nil {
			s.live.shutdown()
		}
		stopEngine()
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return fmt.Errorf("collector: serving: %w", err)
	}
}

// Close tears the server down immediately.
func (s *Server) Close() error {
	err := s.httpSrv.Close()
	// A server that never served has not shown httpSrv its listener.
	if ferr := s.front.Close(); err == nil {
		err = ferr
	}
	return err
}
