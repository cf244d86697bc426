// Command auditd runs the central beacon collector: the WebSocket
// endpoint the in-ad JavaScript reports to (§3 of the paper). It
// terminates beacon connections, derives impression timestamps and
// exposure times from connection lifetimes, enriches records with IP
// metadata, anonymises client addresses, and persists the dataset —
// impressions and conversions — as a binary snapshot (internal/store's
// row format) on shutdown (SIGINT/SIGTERM) or periodically.
//
// Usage:
//
//	auditd [-listen 127.0.0.1:8080] [-snapshot imps.snap] [-secret KEY]
//	       [-flush 30s] [-print-script CAMPAIGN:CREATIVE]
//	       [-debug-addr 127.0.0.1:6060] [-selfreport 60s]
//	       [-unhealthy-after 5m] [-wal journal.wal] [-wal-sync os|group]
//	       [-live] [-live-seed 1] [-live-publishers 150000]
//	       [-trace-sample N] [-trunk-token TOKEN]
//	       [-log-level info] [-log-format text]
//
// With -trunk-token the daemon accepts trunk connections from edge
// ingest gateways (cmd/adedge) on /trunk: gateways terminate beacon
// sessions close to users and forward batched, stream-multiplexed
// commits over a few persistent connections, authenticated by the
// shared token. Without the flag, /trunk refuses all handshakes.
//
// With -trace-sample N one in N impressions is traced end to end —
// beacon context, decode, enrichment, WAL append, store commit,
// change-feed publish, streaming-audit apply — and the resulting
// flight recorder is served on GET /api/trace/recent, /api/trace/{id}
// and /api/trace/export (Chrome about:tracing / Perfetto JSON). Log
// records emitted while handling a traced impression carry its
// trace_id.
//
// With -live the daemon attaches a streaming audit engine to the
// store's change feed and serves incrementally maintained audit views
// on the listen address: GET /api/live/summary, GET
// /api/live/audit/{campaign}, and GET /api/live/stream (server-sent
// events). -live-seed and -live-publishers regenerate the synthetic
// publisher-metadata universe the popularity and context dimensions
// need, and must match the dataset's.
//
// With -wal every acknowledged impression and conversion is journaled to
// a write-ahead log before it enters the in-memory store: at boot the
// daemon loads the last snapshot (if any), replays the journal over it,
// and resumes — a crash loses nothing the collector acknowledged.
// -wal-sync picks the fsync policy: os (default; survives process
// crashes) or group (group commit: each ack waits for an fsync covering
// its entry, so it survives power loss, and concurrently-committing
// sessions share one flush). Every snapshot — periodic and final —
// compacts the journal, and is fsynced and renamed into place before
// the journal is truncated. A journal or snapshot in format v1 (JSON
// lines) is refused at boot and left as it is.
//
// With -print-script the daemon prints the embeddable JavaScript tag
// for the given campaign/creative pair and the running endpoint.
//
// Operational surface: the listen address serves GET /metrics
// (Prometheus text), /api/metrics (JSON) and /healthz alongside the
// beacon endpoint, through the shell every daemon shares
// (internal/daemon). /healthz is the one schema of auditd and adedge —
// tier "collector", id the listen address, status the worst check —
// with the checks ingest_age (bounded by -unhealthy-after),
// feed_subscribers, wal_sync, audit_freshness (-live), store_records and
// snapshot-dir; -debug-addr additionally serves net/http/pprof on a
// separate (ideally loopback-only) listener; -selfreport logs a
// periodic one-line ingest summary (rate, insert latency quantiles,
// rejects by class).
package main

import (
	"context"
	"crypto/rand"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"adaudit/internal/adnet"
	"adaudit/internal/audit"
	"adaudit/internal/beacon"
	"adaudit/internal/collector"
	"adaudit/internal/ipmeta"
	"adaudit/internal/logutil"
	"adaudit/internal/publisher"
	"adaudit/internal/store"
	"adaudit/internal/streamaudit"
	"adaudit/internal/telemetry"
	"adaudit/internal/trace"
)

func main() {
	var (
		listen         = flag.String("listen", "127.0.0.1:8080", "host:port for the beacon endpoint")
		snapshot       = flag.String("snapshot", "impressions.jsonl", "dataset snapshot path: impressions and conversions, binary")
		secret         = flag.String("secret", "", "IP anonymisation key (default: random per run)")
		flush          = flag.Duration("flush", 30*time.Second, "snapshot flush interval (0 disables)")
		printScript    = flag.String("print-script", "", "print the beacon JS for CAMPAIGN:CREATIVE and the endpoint")
		debugAddr      = flag.String("debug-addr", "", "host:port for net/http/pprof (empty disables)")
		selfReport     = flag.Duration("selfreport", 60*time.Second, "self-report log interval (0 disables)")
		unhealthyAfter = flag.Duration("unhealthy-after", 0, "/healthz flips unhealthy when no record committed for this long (0 disables)")
		walPath        = flag.String("wal", "", "write-ahead log path (empty disables the journal)")
		walSync        = flag.String("wal-sync", "os", "WAL fsync policy: os or group")
		live           = flag.Bool("live", false, "serve streaming audit views (/api/live/...) from the store change feed")
		liveSeed       = flag.Int64("live-seed", 1, "seed of the synthetic metadata universe for -live (must match the dataset's)")
		livePubs       = flag.Int("live-publishers", 150000, "size of the synthetic metadata universe for -live")
		traceSample    = flag.Int("trace-sample", 0, "trace 1 in N impressions end to end and serve the flight recorder on /api/trace/ (0 disables)")
		trunkToken     = flag.String("trunk-token", "", "shared secret edge gateways present on /trunk handshakes (empty refuses trunks)")
		logFlags       = logutil.Register(flag.CommandLine)
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	opts := daemonOptions{
		listen:         *listen,
		snapshotPath:   *snapshot,
		secret:         *secret,
		flush:          *flush,
		printScript:    *printScript,
		debugAddr:      *debugAddr,
		selfReport:     *selfReport,
		unhealthyAfter: *unhealthyAfter,
		walPath:        *walPath,
		walSync:        *walSync,
		live:           *live,
		liveSeed:       *liveSeed,
		livePubs:       *livePubs,
		traceSample:    *traceSample,
		trunkToken:     *trunkToken,
	}
	logger, err := logFlags.Logger(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "auditd:", err)
		os.Exit(2)
	}
	opts.logger = logger
	if err := run(ctx, opts, os.Stdout); err != nil {
		logger.Error("daemon failed", "err", err)
		os.Exit(1)
	}
}

// daemonOptions carries the flag values into run, keeping it testable.
type daemonOptions struct {
	listen         string
	snapshotPath   string
	secret         string
	flush          time.Duration
	printScript    string
	debugAddr      string
	selfReport     time.Duration
	unhealthyAfter time.Duration
	walPath        string
	walSync        string
	live           bool
	liveSeed       int64
	livePubs       int
	traceSample    int
	trunkToken     string
	// logger overrides the default stderr text logger (tests pass a
	// quiet one; main passes the -log-level/-log-format one).
	logger *slog.Logger
}

// run starts the collector and serves until ctx is cancelled; the final
// dataset snapshot is written on the way out. Factored from main so the
// daemon is testable end to end.
func run(ctx context.Context, opts daemonOptions, out io.Writer) error {
	logger := opts.logger
	if logger == nil {
		logger = slog.New(logutil.WithTraceIDs(slog.NewTextHandler(os.Stderr, nil)))
	}

	key := []byte(opts.secret)
	if len(key) == 0 {
		key = make([]byte, 32)
		if _, err := rand.Read(key); err != nil {
			return fmt.Errorf("generating anonymisation key: %w", err)
		}
		logger.Info("generated ephemeral anonymisation key; pseudonyms will not be comparable across runs")
	}

	st, wal, err := openStore(opts, logger)
	if err != nil {
		return err
	}
	if wal != nil {
		defer wal.Close()
	}
	var tracer *trace.Tracer
	if opts.traceSample > 0 {
		tracer = trace.NewTracer(trace.NewRecorder(trace.DefaultCapacity), opts.traceSample)
		logger.Info("impression tracing enabled", "sample", fmt.Sprintf("1/%d", opts.traceSample))
	}
	coll, err := collector.New(collector.Config{
		Store:      st,
		Anonymizer: ipmeta.NewAnonymizer(key),
		Logger:     logger,
		Tracer:     tracer,
		TrunkToken: opts.trunkToken,
	})
	if opts.trunkToken != "" {
		logger.Info("trunk endpoint enabled for edge gateways", "path", "/trunk")
	}
	if err != nil {
		return err
	}
	srvOpts := []collector.ServerOption{
		collector.WithHealthCheck("snapshot-dir", snapshotDirWritable(opts.snapshotPath)),
	}
	if opts.unhealthyAfter > 0 {
		srvOpts = append(srvOpts, collector.WithMaxIngestAge(opts.unhealthyAfter))
	}
	if opts.live {
		// The engine primes from whatever the store already holds (a
		// recovered WAL dataset included) and then follows the change
		// feed; the server owns its Run loop.
		uni, err := publisher.NewUniverse(publisher.Config{
			Seed:          opts.liveSeed,
			NumPublishers: opts.livePubs,
		})
		if err != nil {
			return fmt.Errorf("building metadata universe for -live: %w", err)
		}
		keywords := map[string][]string{}
		for _, c := range adnet.PaperCampaigns() {
			keywords[c.ID] = c.Keywords
		}
		eng, err := streamaudit.New(streamaudit.Config{
			Store:     st,
			Meta:      audit.UniverseMetadata{Universe: uni},
			Keywords:  keywords,
			Telemetry: coll.Telemetry(),
		})
		if err != nil {
			return err
		}
		srvOpts = append(srvOpts, collector.WithLiveAudit(eng))
		logger.Info("live audit enabled", "publishers", opts.livePubs, "seed", opts.liveSeed)
	}
	srv, err := collector.NewServer(coll, opts.listen, srvOpts...)
	if err != nil {
		return err
	}
	logger.Info("collector listening", "beacon", srv.BeaconURL(), "snapshot", opts.snapshotPath,
		"metrics", fmt.Sprintf("http://%s/metrics", srv.Addr()))

	if opts.printScript != "" {
		campaignID, creativeID, ok := strings.Cut(opts.printScript, ":")
		if !ok {
			return fmt.Errorf("-print-script wants CAMPAIGN:CREATIVE, got %q", opts.printScript)
		}
		js, err := beacon.Script(beacon.ScriptConfig{
			CollectorURL: srv.BeaconURL(),
			CampaignID:   campaignID,
			CreativeID:   creativeID,
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(out, js)
	}

	if opts.debugAddr != "" {
		debugSrv, err := newDebugServer(opts.debugAddr, coll.Telemetry())
		if err != nil {
			return err
		}
		defer debugSrv.Close()
		go func() {
			logger.Info("debug server listening", "pprof", fmt.Sprintf("http://%s/debug/pprof/", opts.debugAddr))
			if err := debugSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("debug server failed", "err", err)
			}
		}()
	}

	// The periodic flush and the final write both publish through the
	// store, which runs them one after another.
	if opts.flush > 0 {
		go func() {
			t := time.NewTicker(opts.flush)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if err := st.SnapshotCompact(opts.snapshotPath); err != nil {
						logger.Error("periodic snapshot failed", "err", err)
					}
				}
			}
		}()
	}

	if opts.selfReport > 0 {
		go selfReportLoop(ctx, coll, opts.selfReport, logger)
	}

	err = srv.Serve(ctx)
	logger.Info("shutting down", "ingested", coll.Metrics.Ingested.Load(),
		"rejected", coll.Metrics.Rejected.Load())
	if werr := st.SnapshotCompact(opts.snapshotPath); werr != nil {
		return fmt.Errorf("final snapshot: %w", werr)
	}
	return err
}

// openStore builds the daemon's store. Without -wal it starts empty
// (the historical behaviour: the snapshot is an output, not a boot
// input). With -wal it recovers: last snapshot, then journal replay,
// then a journal attached for everything that follows — so the store
// resumes exactly where the previous process died.
func openStore(opts daemonOptions, logger *slog.Logger) (*store.Store, *store.WAL, error) {
	if opts.walPath == "" {
		return store.New(), nil, nil
	}
	policy, err := store.ParseSyncPolicy(opts.walSync)
	if err != nil {
		return nil, nil, err
	}
	var base *store.Store
	if f, err := os.Open(opts.snapshotPath); err == nil {
		base, err = store.ReadSnapshot(f)
		f.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("loading snapshot %s: %w", opts.snapshotPath, err)
		}
		logger.Info("loaded snapshot", "path", opts.snapshotPath, "records", base.Len(), "conversions", base.NumConversions())
	} else if !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("opening snapshot %s: %w", opts.snapshotPath, err)
	}
	st, applied, err := store.RecoverWAL(opts.walPath, base, logger)
	if err != nil {
		return nil, nil, fmt.Errorf("recovering wal %s: %w", opts.walPath, err)
	}
	if applied > 0 {
		logger.Info("replayed write-ahead log", "path", opts.walPath,
			"entries", applied, "records", st.Len(), "conversions", st.NumConversions())
	}
	wal, err := store.OpenWAL(opts.walPath, store.WALOptions{Policy: policy})
	if err != nil {
		return nil, nil, err
	}
	st.AttachWAL(wal)
	return st, wal, nil
}

// newDebugServer builds the -debug-addr sidecar: net/http/pprof plus a
// copy of the metrics endpoints, so profiling and scraping can be kept
// off the public listener entirely.
func newDebugServer(addr string, reg *telemetry.Registry) (*http.Server, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if reg != nil {
		mux.Handle("GET /metrics", reg.Handler())
		mux.Handle("GET /api/metrics", reg.JSONHandler())
	}
	return &http.Server{
		Addr:              addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}, nil
}

// snapshotDirWritable is the /healthz check that the snapshot can still
// be persisted: it probes the target directory with a create+remove.
func snapshotDirWritable(path string) func() error {
	return func() error {
		probe := filepath.Join(filepath.Dir(path), ".auditd-health-probe")
		f, err := os.Create(probe)
		if err != nil {
			return fmt.Errorf("snapshot dir not writable: %w", err)
		}
		f.Close()
		return os.Remove(probe)
	}
}

// selfReportLoop logs a periodic one-line operational summary: ingest
// rate over the interval, store insert latency quantiles, live
// sessions, and rejects by class — the glanceable "is the measurement
// apparatus healthy" line the paper's methodology depends on.
func selfReportLoop(ctx context.Context, coll *collector.Collector, interval time.Duration, logger *slog.Logger) {
	reg := coll.Telemetry()
	if reg == nil {
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	lastIngested := coll.Metrics.Ingested.Load()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			ingested := coll.Metrics.Ingested.Load()
			rate := float64(ingested-lastIngested) / interval.Seconds()
			lastIngested = ingested
			args := []any{
				"ingest_rate_per_s", fmt.Sprintf("%.1f", rate),
				"ingested_total", ingested,
				"sessions", coll.SessionCount(),
			}
			if s, ok := reg.Find("adaudit_store_insert_seconds", nil); ok && s.Hist != nil {
				args = append(args,
					"insert_p50_us", fmt.Sprintf("%.1f", s.Hist.Quantile(0.50)*1e6),
					"insert_p99_us", fmt.Sprintf("%.1f", s.Hist.Quantile(0.99)*1e6),
				)
			}
			if rejects := rejectsByClass(reg); rejects != "" {
				args = append(args, "rejects", rejects)
			}
			logger.Info("self-report", args...)
		}
	}
}

// rejectsByClass renders the per-class reject counters as
// "class=count,class=count" (empty when nothing was rejected).
func rejectsByClass(reg *telemetry.Registry) string {
	parts := []string{}
	for _, s := range reg.Snapshot() {
		if s.Name != "adaudit_collector_rejects_total" || s.Value == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s=%d", s.Labels["class"], int64(s.Value)))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}
