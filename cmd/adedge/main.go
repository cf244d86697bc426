// Command adedge runs the edge ingest tier in front of one collector or
// of N collector shards. It terminates beacon WebSockets close to users,
// enforces origin admission, and forwards each impression upstream over
// pools of persistent trunks with batching, circuit breaking and a spill
// buffer, so an impression it acknowledged survives an upstream outage.
//
// Usage:
//
//	adedge -upstream ws://10.0.0.1:8080/trunk[,ws://10.0.0.2:8080/trunk,...]
//	       [-listen 127.0.0.1:8081] [-trunk-token TOKEN] [-trunks 2] [-id ID]
//	       [-origins ads.example.com,cdn.example.net] [-max-sessions N]
//	       [-spill-limit 65536] [-drain-grace 5s] [-log-level info] [-log-format text]
//	       [-shard-api http://10.0.0.1:8080,http://10.0.0.2:8080] [-live-seed 1] [-live-publishers 150000]
//
// The number of upstreams picks the tier. One makes a gateway
// (internal/gateway). Two or more make a router (internal/router): each
// session's nonce hashes onto one upstream in -upstream order, /trunk
// takes other edges' trunks, and -shard-api (the shards' HTTP bases in
// the same order) adds the merged /api/live/* audit over the metadata
// -live-seed and -live-publishers name, which must match the shards'.
// -trunk-token is presented upstream and required on /trunk. Each
// instance needs a distinct -id (default: random per run). SIGINT and
// SIGTERM drain: new sessions are shed, open ones closed with the
// resumable 1012, and each spill buffer gets -drain-grace to flush.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
	"unicode"

	"adaudit/internal/adnet"
	"adaudit/internal/audit"
	"adaudit/internal/daemon"
	"adaudit/internal/edge"
	"adaudit/internal/gateway"
	"adaudit/internal/logutil"
	"adaudit/internal/publisher"
	"adaudit/internal/router"
	"adaudit/internal/shardmerge"
	"adaudit/internal/streamaudit"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err == errUsage {
		os.Exit(2)
	} else if err != nil {
		fmt.Fprintln(os.Stderr, "adedge:", err)
		os.Exit(1)
	}
}

// errUsage is a failure of the command line, not of the run: what is
// wrong and the usage are on stderr by the time run returns it.
var errUsage = errors.New("bad command line")

// run is the whole command: parse args, serve until ctx is cancelled,
// drain.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("adedge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen      = fs.String("listen", "127.0.0.1:8081", "host:port for the beacon endpoint (and a router's /trunk)")
		upstream    = fs.String("upstream", "", "comma-separated upstream trunk endpoints in shard order (ws://host:port/trunk); required")
		trunkToken  = fs.String("trunk-token", "", "shared secret presented on upstream trunk handshakes and required of trunks into a router's /trunk")
		trunks      = fs.Int("trunks", 2, "persistent trunk connections per upstream")
		origins     = fs.String("origins", "", "comma-separated page origins admitted to /beacon (subdomains included; empty admits all)")
		maxSessions = fs.Int("max-sessions", 0, "concurrent beacon session cap (0 disables)")
		id          = fs.String("id", "", "stable identity on the trunk wire (default: random per run)")
		spillLimit  = fs.Int("spill-limit", 0, "unacked commits held across upstream outages, summed over upstreams, before shedding (0 = default 65536)")
		drainGrace  = fs.Duration("drain-grace", 5*time.Second, "shutdown budget for flushing acked commits upstream")
		shardAPI    = fs.String("shard-api", "", "comma-separated shard HTTP bases in -upstream order; enables the merged /api/live endpoints (two or more upstreams)")
		liveSeed    = fs.Int64("live-seed", 1, "seed of the synthetic metadata universe for the merged live audit (must match the shards')")
		livePubs    = fs.Int("live-publishers", 150000, "size of the synthetic metadata universe for the merged live audit")
		logFlags    = logutil.Register(fs)
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return errUsage
	}
	logger, err := logFlags.Logger(stderr)
	// Comma-separated flag values, tolerating spaces around the commas.
	splitList := func(s string) []string {
		return strings.FieldsFunc(s, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })
	}
	upstreams, apiBases := splitList(*upstream), splitList(*shardAPI)
	switch {
	case err != nil: // a bad -log-level or -log-format
	case len(upstreams) == 0:
		err = errors.New("-upstream is required (comma-separated ws://host:port/trunk)")
	case len(upstreams) == 1:
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "shard-api" || strings.HasPrefix(f.Name, "live-") {
				err = fmt.Errorf("-%s needs two or more upstreams", f.Name)
			}
		})
	case len(apiBases) > 0 && len(apiBases) != len(upstreams):
		err = fmt.Errorf("-shard-api lists %d bases for %d upstreams; they must align in shard order", len(apiBases), len(upstreams))
	}
	if err != nil {
		fmt.Fprintln(stderr, "adedge:", err)
		fs.Usage()
		return errUsage
	}

	var e *edge.Edge
	var srv *daemon.Server
	if len(upstreams) == 1 {
		var g *gateway.Gateway
		if g, err = gateway.New(gateway.Config{CollectorURL: upstreams[0], TrunkToken: *trunkToken, GatewayID: *id, Trunks: *trunks,
			AllowedOrigins: splitList(*origins), MaxSessions: *maxSessions, SpillLimit: *spillLimit, Logger: logger}); err != nil {
			return err
		}
		e = g.Edge
		srv, err = gateway.NewServer(g, *listen, gateway.WithDrainGrace(*drainGrace))
	} else {
		opts := []router.ServerOption{router.WithDrainGrace(*drainGrace)}
		if len(apiBases) > 0 {
			uni, err := publisher.NewUniverse(publisher.Config{Seed: *liveSeed, NumPublishers: *livePubs})
			if err != nil {
				return fmt.Errorf("building metadata universe for merged live audit: %w", err)
			}
			keywords := map[string][]string{}
			for _, c := range adnet.PaperCampaigns() {
				keywords[c.ID] = c.Keywords
			}
			opts = append(opts, router.WithLiveMerge(&shardmerge.Client{Shards: apiBases},
				streamaudit.StaticConfig{Meta: audit.UniverseMetadata{Universe: uni}, Keywords: keywords}))
			logger.Info("merged live audit enabled", "shards", len(apiBases), "publishers", *livePubs, "seed", *liveSeed)
		}
		var r *router.Router
		if r, err = router.New(router.Config{Shards: upstreams, TrunkToken: *trunkToken, RouterID: *id, TrunksPerShard: *trunks,
			AllowedOrigins: splitList(*origins), MaxSessions: *maxSessions, SpillLimit: *spillLimit, Logger: logger}); err != nil {
			return err
		}
		e = r.Edge
		var rs *router.Server
		if rs, err = router.NewServer(r, *listen, opts...); err == nil {
			srv = rs.Server
		}
	}
	if err != nil {
		e.Close()
		return err
	}
	tier := e.Config().Name
	logger.Info(tier+" listening", "beacon", srv.BeaconURL(), "upstreams", len(upstreams), "healthz", "http://"+srv.Addr().String()+"/healthz")
	if err := srv.Serve(ctx); err != nil {
		return err
	}
	logger.Info(tier+" stopped", "spill_pending", e.Health().SpillPending)
	return nil
}
