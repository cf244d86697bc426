package edge

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"adaudit/internal/wsproto"
)

// ServerOptions collects what NewServer's options adjust.
type ServerOptions struct {
	drainGrace time.Duration
	listener   net.Listener
	mux        *http.ServeMux
}

// ServerOption customises a Server.
type ServerOption func(*ServerOptions)

// WithDrainGrace bounds how long Serve waits on shutdown for in-flight
// sessions to commit and for every spill buffer to empty into its
// collector (default 5 s).
func WithDrainGrace(d time.Duration) ServerOption {
	return func(o *ServerOptions) { o.drainGrace = d }
}

// WithListener serves on ln instead of opening a fresh TCP listener
// (addr is then ignored) — the hook the chaos tests use to put a
// fault-injected accept path under the client leg.
func WithListener(ln net.Listener) ServerOption {
	return func(o *ServerOptions) { o.listener = ln }
}

// Handle mounts a tier-specific endpoint next to the standard ones; the
// router's relay and merged live API arrive this way.
func (o *ServerOptions) Handle(pattern string, h http.Handler) { o.mux.Handle(pattern, h) }

// Server runs an Edge behind an HTTP listener with the standard
// operational sidecar: the beacon endpoint, GET /healthz (ok → degraded
// → unhealthy), GET /metrics (Prometheus text) and GET /api/metrics
// (JSON). It owns listener lifecycle and graceful drain, so the
// commands and the tests of both tiers share one serving path.
type Server struct {
	e       *Edge
	httpSrv *http.Server
	// front accepts on the listener ahead of httpSrv: it answers clean
	// beacon upgrades itself and passes every other connection on.
	front      *wsproto.Front
	drainGrace time.Duration
	healthz    func(Health) any
}

// NewServer wraps e in a Server listening on addr (host:port; port 0
// picks a free port). healthz shapes the tier's /healthz body from the
// shared snapshot.
func NewServer(e *Edge, addr string, healthz func(Health) any, opts ...ServerOption) (*Server, error) {
	o := ServerOptions{drainGrace: 5 * time.Second, mux: http.NewServeMux()}
	for _, opt := range opts {
		opt(&o)
	}
	ln := o.listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("%s: listening on %s: %w", e.cfg.Name, addr, err)
		}
	}
	s := &Server{
		e:          e,
		front:      wsproto.NewFront(ln, map[string]wsproto.Route{"/beacon": e.beaconRoute()}),
		drainGrace: o.drainGrace,
		healthz:    healthz,
	}
	o.mux.Handle("/beacon", e)
	o.mux.HandleFunc("GET /healthz", s.serveHealthz)
	if reg := e.Telemetry(); reg != nil {
		start := time.Now()
		reg.GaugeFunc("adaudit_"+e.cfg.Name+"_uptime_seconds",
			"Time since the "+e.cfg.Name+" server started.", nil,
			func() float64 { return time.Since(start).Seconds() })
		o.mux.Handle("/metrics", reg.Handler())
		o.mux.Handle("/api/metrics", reg.JSONHandler())
	}
	s.httpSrv = &http.Server{
		Handler:           o.mux,
		ReadHeaderTimeout: wsproto.HeadTimeout,
	}
	return s, nil
}

// serveHealthz reports the degradation ladder. Degraded stays 200: the
// edge is still doing its job, and flapping a load balancer off a
// functioning node would convert a partial trunk outage into real
// client loss. Unhealthy is 503: some upstream is unreachable on every
// trunk and its commits are only spilling.
func (s *Server) serveHealthz(w http.ResponseWriter, _ *http.Request) {
	h := s.e.Health()
	w.Header().Set("Content-Type", "application/json")
	if h.Status == "unhealthy" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.healthz(h))
}

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr { return s.front.Addr() }

// BeaconURL returns the ws:// URL beacon clients should dial.
func (s *Server) BeaconURL() string {
	return fmt.Sprintf("ws://%s/beacon", s.front.Addr().String())
}

// Serve blocks serving requests until ctx is cancelled, then drains:
// admission flips to shedding, open sessions are closed with the
// resumable 1012 close code and a Retry-After hint, and every spill
// buffer is given until the drain grace to flush acked commits into its
// collector before the trunk pools are torn down.
func (s *Server) Serve(ctx context.Context) error {
	errCh := make(chan error, 1)
	go func() {
		errCh <- s.httpSrv.Serve(s.front)
	}()
	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = s.httpSrv.Shutdown(shutdownCtx)
		left := s.e.Drain(s.drainGrace)
		if left > 0 {
			s.e.log.Warn("edge: drain deadline hit with unflushed commits", "pending", left)
		}
		_ = s.httpSrv.Close()
		<-errCh
		s.e.Close()
		return nil
	case err := <-errCh:
		s.e.Close()
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return fmt.Errorf("%s: serving: %w", s.e.cfg.Name, err)
	}
}

// Close tears the server down immediately.
func (s *Server) Close() error {
	err := s.httpSrv.Close()
	// A server that never served has not shown httpSrv its listener.
	if ferr := s.front.Close(); err == nil {
		err = ferr
	}
	s.e.Close()
	return err
}
