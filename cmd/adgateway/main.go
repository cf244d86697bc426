// Command adgateway runs the trusted edge ingest gateway: it
// terminates beacon WebSockets close to users, enforces origin
// admission policy, and forwards impressions to the central collector
// (auditd) over a small pool of persistent trunk connections with
// batching, circuit breaking and an in-gateway spill buffer — a client
// the gateway acknowledged is delivered even across a collector
// outage (replayed to the collector, whose store counts each leg of a
// beacon's nonce once, so never double-counted).
//
// Usage:
//
//	adgateway -collector ws://127.0.0.1:8080/trunk
//	          [-listen 127.0.0.1:8081] [-trunk-token TOKEN] [-trunks 2]
//	          [-origins ads.example.com,cdn.example.net] [-max-sessions N]
//	          [-gateway-id ID] [-spill-limit 65536] [-drain-grace 5s]
//	          [-log-level info] [-log-format text]
//
// The listen address serves the beacon endpoint on /beacon plus the
// operational surface every daemon shares (internal/daemon): GET
// /healthz in the one schema of auditd, adgateway and adrouter — tier
// "gateway", id the -gateway-id, an upstream_0 check (healthy of total
// trunks: ok → degraded → unhealthy as trunks break) and spill_pending
// — GET /metrics (Prometheus text) and GET /api/metrics (JSON). On
// SIGINT/SIGTERM the gateway drains: admission flips to
// shedding, open sessions are handed back with the resumable 1012
// close code and a Retry-After hint (the beacon client reconnects
// elsewhere and resumes with its nonce), and the spill buffer is given
// -drain-grace to flush every acknowledged commit into the collector.
//
// Each gateway instance needs a distinct -gateway-id (a router folds
// replays of a commit it still holds per gateway+stream); the default
// is random per run. -trunk-token must match auditd's -trunk-token.
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

	"adaudit/internal/gateway"
	"adaudit/internal/logutil"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err == errUsage {
		os.Exit(2)
	} else if err != nil {
		fmt.Fprintln(os.Stderr, "adgateway:", err)
		os.Exit(1)
	}
}

// errUsage is a failure of the command line, not of the run: what is
// wrong and the usage are on stderr by the time run returns it.
var errUsage = errors.New("bad command line")

// run is the whole command: parse args, serve until ctx is cancelled,
// drain.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("adgateway", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen      = fs.String("listen", "127.0.0.1:8081", "host:port for the beacon endpoint")
		collectorWS = fs.String("collector", "", "collector trunk endpoint (ws://host:port/trunk); required")
		trunkToken  = fs.String("trunk-token", "", "shared secret presented on trunk handshakes (must match auditd -trunk-token)")
		trunks      = fs.Int("trunks", 2, "persistent trunk connections to the collector")
		origins     = fs.String("origins", "", "comma-separated page origins admitted to /beacon (subdomains included; empty admits all)")
		maxSessions = fs.Int("max-sessions", 0, "concurrent beacon session cap (0 disables)")
		gatewayID   = fs.String("gateway-id", "", "stable gateway identity on the trunk wire (default: random per run)")
		spillLimit  = fs.Int("spill-limit", 0, "unacked commits held across a collector outage before shedding (0 = default 65536)")
		drainGrace  = fs.Duration("drain-grace", 5*time.Second, "shutdown budget for flushing acked commits to the collector")
		logFlags    = logutil.Register(fs)
	)
	usage := func(err error) error {
		fmt.Fprintln(stderr, "adgateway:", err)
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
	if *collectorWS == "" {
		return usage(errors.New("-collector is required (ws://host:port/trunk)"))
	}

	g, err := gateway.New(gateway.Config{
		CollectorURL: *collectorWS,
		TrunkToken:   *trunkToken,
		GatewayID:    *gatewayID,
		Trunks:       *trunks,
		// Comma-separated, tolerating spaces around the commas.
		AllowedOrigins: strings.FieldsFunc(*origins, func(r rune) bool { return r == ',' || unicode.IsSpace(r) }),
		MaxSessions:    *maxSessions,
		SpillLimit:     *spillLimit,
		Logger:         logger,
	})
	if err != nil {
		return fmt.Errorf("gateway init: %w", err)
	}
	srv, err := gateway.NewServer(g, *listen, gateway.WithDrainGrace(*drainGrace))
	if err != nil {
		g.Close()
		return err
	}
	logger.Info("gateway listening",
		"beacon", srv.BeaconURL(),
		"collector", *collectorWS,
		"trunks", *trunks,
		"healthz", fmt.Sprintf("http://%s/healthz", srv.Addr()))

	if err := srv.Serve(ctx); err != nil {
		return err
	}
	logger.Info("gateway stopped", "spill_pending", g.Health().SpillPending)
	return nil
}
