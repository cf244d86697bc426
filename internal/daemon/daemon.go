// Package daemon is the one HTTP process shell the collector, the
// gateway and the router serve through. It owns the listener, the
// wsproto.Front that answers clean /beacon upgrades in place ahead of
// one ServeMux, the operational routes every tier shares (GET /healthz,
// GET /metrics, GET /api/metrics) with the adaudit_<tier>_uptime_seconds
// series, and the shutdown order: stop accepting, Drain the tier's
// sessions, close. A tier hands it a Tier — its beacon endpoint, what
// else it serves and how it drains — and adds its own routes; nothing
// else about serving differs between the three daemons.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/telemetry"
	"adaudit/internal/wsproto"
)

// Tier is what a daemon serves.
type Tier struct {
	// Name is the tier's word for itself ("collector", "gateway",
	// "router"): the tier of /healthz, the middle of the uptime series'
	// name and the prefix of Serve's errors.
	Name string
	// Beacon is the /beacon endpoint, answered in place at the front or
	// through net/http; what it tracks are /healthz's sessions.
	Beacon *beacon.Server
	// Telemetry is served on /metrics and /api/metrics; nil serves
	// neither.
	Telemetry *telemetry.Registry
	// Drain asks in-flight sessions to commit and waits up to grace for
	// them; it returns what was still undelivered when grace expired.
	Drain func(grace time.Duration) int
	// Health reports the tier's checks (and its ID, if it has one: the
	// bound address stands in otherwise). The shell fills in the tier,
	// the uptime and the sessions.
	Health func() telemetry.Health
	// Routes, when set, mounts the tier's own endpoints. It runs after
	// every option is applied, so it may read Options.
	Routes func(mux *http.ServeMux)
	// Close, when set, releases what the tier runs beside the server;
	// it is called once serving ends and by Server.Close.
	Close func()
	// Options is where the tier's own options (TierOption) write.
	Options any
}

// Option customises a Server.
type Option func(*options)

type options struct {
	listener   net.Listener
	drainGrace time.Duration
	tier       any
}

// WithListener serves on ln instead of opening a fresh TCP listener
// (addr is then ignored): the hook tests use to serve a tier on an
// internal/memnet listener, faulty ones included (ListenFaulty).
func WithListener(ln net.Listener) Option {
	return func(o *options) { o.listener = ln }
}

// WithDrainGrace bounds each of Serve's two shutdown waits: for
// in-flight HTTP requests, then for the tier's Drain (default 5 s).
func WithDrainGrace(d time.Duration) Option {
	return func(o *options) { o.drainGrace = d }
}

// TierOption makes f, which sets a tier's own option state of type T,
// an Option: it applies f to the Tier.Options New is given, which must
// be a *T.
func TierOption[T any](f func(*T)) Option {
	return func(o *options) { f(o.tier.(*T)) }
}

// Server runs a Tier behind an HTTP listener.
type Server struct {
	tier  Tier
	http  *http.Server
	front *wsproto.Front
	grace time.Duration
	start time.Time
}

// New serves t on addr (host:port; port 0 picks a free port).
func New(t Tier, addr string, opts ...Option) (*Server, error) {
	o := options{drainGrace: 5 * time.Second, tier: t.Options}
	for _, opt := range opts {
		opt(&o)
	}
	ln := o.listener
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", addr); err != nil {
			return nil, fmt.Errorf("%s: listening on %s: %w", t.Name, addr, err)
		}
	}
	s := &Server{
		tier:  t,
		front: wsproto.NewFront(ln, map[string]wsproto.Route{"/beacon": t.Beacon.Route()}),
		grace: o.drainGrace,
		start: time.Now(),
	}
	mux := http.NewServeMux()
	mux.Handle("/beacon", t.Beacon)
	mux.Handle("GET /healthz", telemetry.HealthHandler(s.health))
	if reg := t.Telemetry; reg != nil {
		reg.GaugeFunc("adaudit_"+t.Name+"_uptime_seconds",
			"Time since the "+t.Name+" server started.", nil,
			func() float64 { return time.Since(s.start).Seconds() })
		mux.Handle("GET /metrics", reg.Handler())
		mux.Handle("GET /api/metrics", reg.JSONHandler())
	}
	if t.Routes != nil {
		t.Routes(mux)
	}
	s.http = &http.Server{Handler: mux, ReadHeaderTimeout: wsproto.HeadTimeout}
	return s, nil
}

func (s *Server) health() telemetry.Health {
	h := s.tier.Health()
	h.Tier = s.tier.Name
	if h.ID == "" {
		h.ID = s.Addr().String()
	}
	h.UptimeSeconds = time.Since(s.start).Seconds()
	h.Sessions = s.tier.Beacon.Tracked()
	return h
}

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr { return s.front.Addr() }

// BeaconURL returns the ws:// URL beacons should dial.
func (s *Server) BeaconURL() string {
	return fmt.Sprintf("ws://%s/beacon", s.Addr())
}

// RegisterOnShutdown runs f when Serve begins shutting down, beside
// the wait for in-flight requests: the hook that ends a long-lived
// response (a live SSE stream) so that wait does not run out.
func (s *Server) RegisterOnShutdown(f func()) { s.http.RegisterOnShutdown(f) }

// Serve blocks serving requests until ctx is cancelled, then shuts
// down: the listener closes and in-flight requests finish (within the
// drain grace), the tier drains its sessions (within the grace again),
// the server closes and the tier's Close runs.
func (s *Server) Serve(ctx context.Context) error {
	if s.tier.Close != nil {
		defer s.tier.Close()
	}
	errCh := make(chan error, 1)
	go func() { errCh <- s.http.Serve(s.front) }()
	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), s.grace)
		defer cancel()
		_ = s.http.Shutdown(shutdownCtx)
		s.tier.Drain(s.grace)
		_ = s.http.Close()
		<-errCh
		return nil
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return fmt.Errorf("%s: serving: %w", s.tier.Name, err)
	}
}

// Close tears the server down immediately.
func (s *Server) Close() error {
	err := s.http.Close()
	// A server that never served has not shown s.http its listener.
	if ferr := s.front.Close(); err == nil {
		err = ferr
	}
	if s.tier.Close != nil {
		s.tier.Close()
	}
	return err
}
