package collector

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"adaudit/internal/daemon"
	"adaudit/internal/streamaudit"
	"adaudit/internal/telemetry"
	"adaudit/internal/trace"
)

// ServerOption customises a Server: the collector's own options below,
// or the daemon shell's (daemon.WithListener, daemon.WithDrainGrace).
type ServerOption = daemon.Option

// serverOptions is what the collector's own options set.
type serverOptions struct {
	maxIngestAge time.Duration
	checks       map[string]func() error
	liveEngine   *streamaudit.Engine
}

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
	return daemon.TierOption(func(o *serverOptions) { o.maxIngestAge = d })
}

// WithHealthCheck adds a named check to /healthz; a non-nil error marks
// the server unhealthy and the message appears in the response. Used
// e.g. by cmd/auditd to verify the snapshot directory stays writable.
func WithHealthCheck(name string, fn func() error) ServerOption {
	return daemon.TierOption(func(o *serverOptions) {
		if o.checks == nil {
			o.checks = map[string]func() error{}
		}
		o.checks[name] = fn
	})
}

// WithLiveAudit mounts the streaming-audit endpoints (/api/live/summary,
// /api/live/audit/{campaign}, /api/live/stream, /api/live/export)
// backed by e, and makes Serve own the engine's consumption loop: Run
// starts with the server and is cancelled only after the beacon drain,
// so the final report reflects every impression that committed before
// shutdown.
func WithLiveAudit(e *streamaudit.Engine) ServerOption {
	return daemon.TierOption(func(o *serverOptions) { o.liveEngine = e })
}

// Server runs a Collector behind the daemon shell: the beacon endpoint,
// the trunk endpoint, the conversion pixel, the advertiser query API,
// and the telemetry surface — GET /metrics (Prometheus text), GET
// /api/metrics (JSON), GET /healthz. On shutdown in-flight beacon
// sessions are drained (bounded by the drain grace) so their
// impressions commit instead of dying with the process.
type Server struct {
	*daemon.Server
	collector *Collector
	opts      serverOptions
	start     time.Time
	live      *liveAPI

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

// NewServer wraps c in a Server listening on addr (host:port; port 0
// picks a free port).
func NewServer(c *Collector, addr string, opts ...ServerOption) (*Server, error) {
	s := &Server{collector: c, start: time.Now()}
	d, err := daemon.New(daemon.Tier{
		Name:      "collector",
		Beacon:    &c.sessions,
		Telemetry: c.Telemetry(),
		Drain:     c.sessions.Drain,
		Health:    s.health,
		Routes:    s.routes,
		Options:   &s.opts,
	}, addr, opts...)
	if err != nil {
		return nil, err
	}
	s.Server = d
	if s.live != nil {
		d.RegisterOnShutdown(s.live.shutdown)
	}
	if reg := c.Telemetry(); reg != nil {
		reg.GaugeFunc("adaudit_collector_last_ingest_age_seconds",
			"Time since the last committed record (since start while idle).", nil,
			func() float64 { return s.lastIngestAge().Seconds() })
	}
	return s, nil
}

// routes mounts the collector's endpoints beside the shell's.
func (s *Server) routes(mux *http.ServeMux) {
	c := s.collector
	mux.HandleFunc("/trunk", c.ServeTrunk)
	mux.HandleFunc("GET /conv", c.ServeConversionPixel)
	(&queryAPI{st: c.cfg.Store}).register(mux)
	if e := s.opts.liveEngine; e != nil {
		s.live = newLiveAPI(e)
		s.live.register(mux)
	}
	if t := c.Tracer(); t != nil {
		if rec := t.Recorder(); rec != nil {
			trace.RegisterAPI(mux, rec)
		}
	}
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

// ceiling is a check that fails unhealthy when value exceeds limit.
func ceiling(value, limit float64, detail string) telemetry.Check {
	c := telemetry.Check{Status: telemetry.HealthOK, Value: value, Limit: limit, Detail: detail}
	if value > limit {
		c.Status = telemetry.HealthUnhealthy
	}
	return c
}

// health is the collector's /healthz report: ingest_age (with
// telemetry on), feed_subscribers, wal_sync, audit_freshness (with a
// live engine), store_records, and every WithHealthCheck check.
func (s *Server) health() telemetry.Health {
	st := s.collector.cfg.Store
	var h telemetry.Health
	if s.collector.Telemetry() != nil {
		age := s.lastIngestAge().Seconds()
		if limit := s.opts.maxIngestAge; limit > 0 {
			h.Add("ingest_age", ceiling(age, limit.Seconds(), "seconds since the last committed record"))
		} else {
			h.Add("ingest_age", telemetry.Check{Status: telemetry.HealthOK, Value: age,
				Detail: "seconds since the last committed record; no bound set"})
		}
	}
	drops := st.FeedDrops()
	h.Add("feed_subscribers", ceiling(float64(s.feedDropsSince(drops)), 0,
		fmt.Sprintf("change-feed subscribers dropped since the last probe (consumers resyncing); %d in all", drops)))
	h.Add("wal_sync", ceiling(st.WALDirtyDuration().Seconds(), maxWALSyncLag.Seconds(),
		"seconds the oldest unsynced journal entry has waited for its fsync"))
	if e := s.opts.liveEngine; e != nil {
		h.Add("audit_freshness", ceiling(e.Staleness().Seconds(), maxAuditStaleness.Seconds(),
			"seconds the streaming audit lags the change feed"))
	}
	h.Add("store_records", telemetry.Check{Status: telemetry.HealthOK, Value: float64(st.Len())})
	for name, fn := range s.opts.checks {
		c := telemetry.Check{Status: telemetry.HealthOK}
		if err := fn(); err != nil {
			c.Status, c.Detail = telemetry.HealthUnhealthy, err.Error()
		}
		h.Add(name, c)
	}
	return h
}

// Serve blocks serving requests until ctx is cancelled, then shuts down
// through the daemon shell: live SSE streams are ended as shutdown
// begins (a long-lived stream would otherwise pin it until its
// timeout), in-flight beacon sessions are asked to commit and drained
// for up to the drain grace (sessions still open after that are counted
// as dropped — the paper's §3.1 loss model), and finally the
// streaming-audit engine is stopped, after the drain, so it applies
// every impression that committed before teardown.
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
	if s.live != nil {
		engineCtx, cancel := context.WithCancel(context.Background())
		engineDone := make(chan struct{})
		go func() {
			defer close(engineDone)
			s.live.engine.Run(engineCtx)
		}()
		defer func() {
			cancel()
			<-engineDone
		}()
	}
	return s.Server.Serve(ctx)
}
