package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"adaudit/internal/edge"
	"adaudit/internal/shardmerge"
	"adaudit/internal/streamaudit"
)

// ServerOption customises a Server.
type ServerOption = edge.ServerOption

// WithDrainGrace bounds how long Serve waits on shutdown for in-flight
// sessions to commit and for every shard's spill buffer to empty
// (default 5 s).
func WithDrainGrace(d time.Duration) ServerOption { return edge.WithDrainGrace(d) }

// WithListener serves on ln instead of opening a fresh TCP listener
// (addr is then ignored) — the hook the chaos tests use to put a
// fault-injected accept path under the router's client leg.
func WithListener(ln net.Listener) ServerOption { return edge.WithListener(ln) }

// WithLiveMerge adds the merged live-audit API: GET /api/live/export
// serves the shard-merged streamaudit export, and /api/live/summary +
// /api/live/audit/{campaign} answer from a query engine built over that
// merged state — the same endpoints a single collector serves, now
// spanning the whole sharded dataset. Each request fetches every
// shard's export fresh (client's Shards must list the shard HTTP bases
// in shard order); cfg supplies the metadata the static engine folds
// against, which must agree with the shards' own.
func WithLiveMerge(client *shardmerge.Client, cfg streamaudit.StaticConfig) ServerOption {
	m := &liveMerge{client: client, cfg: cfg}
	return func(o *edge.ServerOptions) {
		o.Handle("GET /api/live/export", http.HandlerFunc(m.serveExport))
		o.Handle("GET /api/live/summary", http.HandlerFunc(m.serveSummary))
		o.Handle("GET /api/live/audit/", http.HandlerFunc(m.serveAudit))
	}
}

// Server runs a Router behind the edge core's HTTP scaffold — the
// beacon endpoint, GET /healthz (per-shard trunk health, ok → degraded →
// unhealthy: a shard with no healthy trunk is fatal, because no amount
// of re-homing can move its slice of the keyspace), GET /metrics and
// GET /api/metrics — plus what a router mounts on it: the gateway trunk
// relay on /trunk and optionally the merged /api/live/* views.
type Server struct{ *edge.Server }

// NewServer wraps r in a Server listening on addr (host:port; port 0
// picks a free port).
func NewServer(r *Router, addr string, opts ...ServerOption) (*Server, error) {
	relay := func(o *edge.ServerOptions) { o.Handle("/trunk", http.HandlerFunc(r.ServeTrunk)) }
	s, err := edge.NewServer(r.Edge, addr,
		func(h edge.Health) any { return healthStatus(h) },
		append([]ServerOption{relay}, opts...)...)
	if err != nil {
		return nil, err
	}
	return &Server{s}, nil
}

// TrunkURL returns the ws:// URL gateways should trunk into.
func (s *Server) TrunkURL() string {
	return fmt.Sprintf("ws://%s/trunk", s.Addr().String())
}

// liveMerge answers the merged live-audit endpoints.
type liveMerge struct {
	client *shardmerge.Client
	cfg    streamaudit.StaticConfig
}

// serveExport serves the union of every shard's streamaudit
// export, merged in shard order.
func (m *liveMerge) serveExport(w http.ResponseWriter, r *http.Request) {
	exp, err := m.client.FetchMerged(r.Context())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	shardmerge.WriteExport(w, exp)
}

// engine fetches every shard and builds a query engine over the
// merged state.
func (m *liveMerge) engine(ctx context.Context) (*streamaudit.Engine, error) {
	exp, err := m.client.FetchMerged(ctx)
	if err != nil {
		return nil, err
	}
	return streamaudit.NewStatic(m.cfg, exp)
}

func (m *liveMerge) serveSummary(w http.ResponseWriter, r *http.Request) {
	eng, err := m.engine(r.Context())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	writeJSON(w, eng.Summaries())
}

func (m *liveMerge) serveAudit(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/api/live/audit/")
	if id == "" || strings.Contains(id, "/") {
		http.Error(w, "missing campaign id", http.StatusBadRequest)
		return
	}
	eng, err := m.engine(r.Context())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	la, ok, err := eng.Audit(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if !ok {
		http.Error(w, "unknown campaign", http.StatusNotFound)
		return
	}
	writeJSON(w, la)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
