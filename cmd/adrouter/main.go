// Command adrouter runs the sharded ingest front tier: it terminates
// beacon WebSockets and gateway trunk connections, consistent-hashes
// every session's nonce onto one of N collector shards, and forwards
// each impression to its owning shard over a pool of persistent trunk
// connections with batching, circuit breaking and a per-shard spill
// buffer — a client or gateway the router acknowledged is delivered
// even across a shard restart (replayed to the shard, whose store
// counts each leg of a beacon's nonce once, so never double-counted).
//
// Usage:
//
//	adrouter -shards ws://10.0.0.1:8080/trunk,ws://10.0.0.2:8080/trunk
//	         [-listen 127.0.0.1:8082] [-trunk-token TOKEN]
//	         [-trunks-per-shard 2]
//	         [-origins ads.example.com,cdn.example.net] [-max-sessions N]
//	         [-router-id ID] [-spill-limit 65536] [-drain-grace 5s]
//	         [-shard-api http://10.0.0.1:8080,http://10.0.0.2:8080]
//	         [-live-seed 1] [-live-publishers 150000]
//	         [-log-level info] [-log-format text]
//
// The listen address serves the beacon endpoint on /beacon, the
// gateway trunk relay on /trunk, plus the operational surface every
// daemon shares (internal/daemon): GET /healthz in the one schema of
// auditd, adgateway and adrouter — tier "router", id the -router-id,
// one upstream_<i> check per shard (ok → degraded → unhealthy as shard
// trunks break; a shard with no healthy trunk is fatal because its
// slice of the keyspace has nowhere else to go) and spill_pending — GET
// /metrics (Prometheus text, per-shard series under shard_id labels)
// and GET /api/metrics (JSON).
//
// With -shard-api the router also serves the merged live audit: GET
// /api/live/export unions every shard's streaming-audit export in
// shard order, and /api/live/summary + /api/live/audit/{campaign}
// answer from an engine built over that merged state — the same report
// a single unsharded collector would produce. -shard-api must list the
// shards' HTTP bases in the same order as -shards, and -live-seed /
// -live-publishers must match the shards' own -live metadata.
//
// On SIGINT/SIGTERM the router drains: admission flips to shedding,
// open sessions are handed back with the resumable 1012 close code and
// a Retry-After hint, and every shard's spill buffer is given
// -drain-grace to flush acknowledged commits. The shard set is fixed
// for the router's lifetime — resharding means draining and restarting
// with a new -shards list.
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
		fmt.Fprintln(os.Stderr, "adrouter:", err)
		os.Exit(1)
	}
}

// errUsage is a failure of the command line, not of the run: what is
// wrong and the usage are on stderr by the time run returns it.
var errUsage = errors.New("bad command line")

// run is the whole command: parse args, serve until ctx is cancelled,
// drain.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("adrouter", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen      = fs.String("listen", "127.0.0.1:8082", "host:port for the beacon and trunk endpoints")
		shards      = fs.String("shards", "", "comma-separated shard trunk endpoints in shard order (ws://host:port/trunk); required")
		trunkToken  = fs.String("trunk-token", "", "shared secret presented on shard trunk handshakes and required of gateway trunks")
		perShard    = fs.Int("trunks-per-shard", 2, "persistent trunk connections per shard")
		origins     = fs.String("origins", "", "comma-separated page origins admitted to /beacon (subdomains included; empty admits all)")
		maxSessions = fs.Int("max-sessions", 0, "concurrent beacon session cap (0 disables)")
		routerID    = fs.String("router-id", "", "stable router identity on the shard trunk wire (default: random per run)")
		spillLimit  = fs.Int("spill-limit", 0, "unacked commits held across shard outages, summed over shards, before shedding (0 = default 65536)")
		drainGrace  = fs.Duration("drain-grace", 5*time.Second, "shutdown budget for flushing acked commits to the shards")
		shardAPI    = fs.String("shard-api", "", "comma-separated shard HTTP bases in shard order; enables the merged /api/live endpoints")
		liveSeed    = fs.Int64("live-seed", 1, "seed of the synthetic metadata universe for the merged live audit (must match the shards')")
		livePubs    = fs.Int("live-publishers", 150000, "size of the synthetic metadata universe for the merged live audit")
		logFlags    = logutil.Register(fs)
	)
	usage := func(err error) error {
		fmt.Fprintln(stderr, "adrouter:", err)
		fs.Usage()
		return errUsage
	}
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return errUsage
	}
	logger, err := logFlags.Logger(stderr)
	if err != nil {
		return usage(err)
	}
	// Comma-separated flag values, tolerating spaces around the commas.
	splitList := func(s string) []string {
		return strings.FieldsFunc(s, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })
	}
	shardURLs := splitList(*shards)
	if len(shardURLs) == 0 {
		return usage(errors.New("-shards is required (comma-separated ws://host:port/trunk)"))
	}
	srvOpts := []router.ServerOption{router.WithDrainGrace(*drainGrace)}
	if *shardAPI != "" {
		apiBases := splitList(*shardAPI)
		if len(apiBases) != len(shardURLs) {
			return usage(fmt.Errorf("-shard-api lists %d bases for %d shards; they must align in shard order",
				len(apiBases), len(shardURLs)))
		}
		uni, err := publisher.NewUniverse(publisher.Config{
			Seed:          *liveSeed,
			NumPublishers: *livePubs,
		})
		if err != nil {
			return fmt.Errorf("building metadata universe for merged live audit: %w", err)
		}
		keywords := map[string][]string{}
		for _, c := range adnet.PaperCampaigns() {
			keywords[c.ID] = c.Keywords
		}
		srvOpts = append(srvOpts, router.WithLiveMerge(
			&shardmerge.Client{Shards: apiBases},
			streamaudit.StaticConfig{
				Meta:     audit.UniverseMetadata{Universe: uni},
				Keywords: keywords,
			},
		))
		logger.Info("merged live audit enabled", "shards", len(apiBases),
			"publishers", *livePubs, "seed", *liveSeed)
	}

	r, err := router.New(router.Config{
		Shards:         shardURLs,
		TrunkToken:     *trunkToken,
		RouterID:       *routerID,
		TrunksPerShard: *perShard,
		AllowedOrigins: splitList(*origins),
		MaxSessions:    *maxSessions,
		SpillLimit:     *spillLimit,
		Logger:         logger,
	})
	if err != nil {
		return fmt.Errorf("router init: %w", err)
	}
	srv, err := router.NewServer(r, *listen, srvOpts...)
	if err != nil {
		r.Close()
		return err
	}
	logger.Info("router listening",
		"beacon", srv.BeaconURL(),
		"trunk", srv.TrunkURL(),
		"shards", len(shardURLs),
		"trunks_per_shard", *perShard,
		"healthz", fmt.Sprintf("http://%s/healthz", srv.Addr()))

	if err := srv.Serve(ctx); err != nil {
		return err
	}
	logger.Info("router stopped", "spill_pending", r.Health().SpillPending)
	return nil
}
