package router

import (
	"context"
	"net/http"
	"time"

	"adaudit/internal/daemon"
	"adaudit/internal/shardmerge"
	"adaudit/internal/streamaudit"
)

// ServerOption customises a Server.
type ServerOption = daemon.Option

// serverOptions is what the router's own options set.
type serverOptions struct {
	merge *liveMerge
}

// WithDrainGrace bounds how long Serve waits on shutdown for in-flight
// sessions to commit and for every shard's spill buffer to empty
// (default 5 s).
func WithDrainGrace(d time.Duration) ServerOption { return daemon.WithDrainGrace(d) }

// WithLiveMerge adds the merged live-audit API: GET /api/live/export
// serves the shard-merged streamaudit export, and /api/live/summary +
// /api/live/audit/{campaign} answer from a query engine built over that
// merged state — the same endpoints a single collector serves, now
// spanning the whole sharded dataset. Each request fetches every
// shard's export fresh (client's Shards must list the shard HTTP bases
// in shard order); cfg supplies the metadata the static engine folds
// against, which must agree with the shards' own.
func WithLiveMerge(client *shardmerge.Client, cfg streamaudit.StaticConfig) ServerOption {
	return daemon.TierOption(func(o *serverOptions) { o.merge = &liveMerge{client: client, cfg: cfg} })
}

// Server runs a Router behind the daemon shell — the beacon endpoint,
// GET /healthz (one upstream_<i> check per shard, ok → degraded →
// unhealthy: a shard with no healthy trunk is fatal, because no amount
// of re-homing can move its slice of the keyspace), GET /metrics and
// GET /api/metrics — plus what a router mounts on it: the gateway trunk
// relay on /trunk and optionally the merged /api/live/* views.
type Server struct{ *daemon.Server }

// NewServer wraps r in a Server listening on addr (host:port; port 0
// picks a free port).
func NewServer(r *Router, addr string, opts ...ServerOption) (*Server, error) {
	var o serverOptions
	t := r.Tier()
	t.Options = &o
	t.Routes = func(mux *http.ServeMux) {
		mux.HandleFunc("/trunk", r.ServeTrunk)
		if m := o.merge; m != nil {
			mux.HandleFunc("GET /api/live/export", m.serveExport)
			mux.Handle("GET /api/live/summary", shardmerge.SummaryHandler(m.engine))
			mux.Handle("GET /api/live/audit/", shardmerge.AuditHandler(m.engine))
		}
	}
	s, err := daemon.New(t, addr, opts...)
	if err != nil {
		return nil, err
	}
	return &Server{s}, nil
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
