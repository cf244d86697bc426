// Command adsim runs the paper's 8-campaign workload end to end on the
// simulated ad network, collects the beacon dataset, and writes the
// snapshot (impressions and conversions) plus the vendor reports for
// later auditing.
//
// Usage:
//
//	adsim [-seed N] [-publishers N] [-snapshot imps.snap] [-csv imps.csv]
//	      [-metrics metrics.json] [-report] [-adversarial spoof|pool|bots|inflate|all]
//	      [-gateway ws://host:port/beacon] [-gateway-limit 1000] [-shards N]
//	      [-log-level info|debug|warn|error] [-log-format text|json]
//
// With -gateway the collected dataset is additionally replayed through
// a live edge gateway (or directly against a collector's beacon
// endpoint) as real WebSocket beacon sessions — each impression becomes
// a payload with a deterministic nonce, so a rerun resends legs the
// collector has counted, and it drops them. This is the load path for
// exercising the
// adedge → auditd tier with realistic campaign traffic;
// -gateway-limit caps how many impressions are replayed (0 = all).
//
// With -shards N the dataset is instead replayed through an in-process
// sharded deployment — N collectors, each with a live streaming-audit
// engine, behind a multiplexing router — and the run verifies the
// shard-merge invariant: the report over the router's merged live
// export deep-equals the batch audit over the union of the shard
// stores. -gateway-limit and -wire apply to this replay too.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"adaudit"
	"adaudit/internal/adnet"
	"adaudit/internal/beacon"
	"adaudit/internal/logutil"
	"adaudit/internal/store"
)

func main() {
	var (
		seed        = flag.Int64("seed", 1, "simulation seed (same seed, same dataset)")
		publishers  = flag.Int("publishers", 150000, "synthetic inventory size")
		snapshot    = flag.String("snapshot", "", "write the dataset, impressions and conversions, as a binary snapshot (what auditd and auditctl read) to this path")
		csvPath     = flag.String("csv", "", "write the impression dataset as CSV to this path (the export for analysis)")
		reports     = flag.String("reports", "", "write the vendor reports (JSON) to this path")
		metricsPath = flag.String("metrics", "", "write the run's telemetry (JSON metrics view) to this path")
		printRep    = flag.Bool("report", true, "print the full audit report (tables 1-5, figures 1-3)")
		adversarial = flag.String("adversarial", "", "inject a fraud scenario into the vendor: spoof, pool, bots, inflate, or all")
		gatewayURL  = flag.String("gateway", "", "replay the dataset through this beacon endpoint (ws://host:port/beacon of an adedge or auditd)")
		gatewayLim  = flag.Int("gateway-limit", 1000, "impressions to replay through -gateway (0 = the whole dataset)")
		wire        = flag.String("wire", "text", "beacon wire for -gateway replay: text, binary, or mixed (alternate per session)")
		shardsN     = flag.Int("shards", 0, "replay the dataset through an in-process sharded tier: N collectors behind a router, with the shard-merged audit verified against the batch audit (0 disables)")
		logFlags    = logutil.Register(flag.CommandLine)
	)
	flag.Parse()
	logger, err := logFlags.Logger(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adsim:", err)
		os.Exit(2)
	}
	if err := run(*seed, *publishers, *snapshot, *csvPath, *reports, *metricsPath, *printRep, *adversarial, *gatewayURL, *gatewayLim, *wire, *shardsN, logger); err != nil {
		logger.Error("run failed", "err", err)
		os.Exit(1)
	}
}

func run(seed int64, publishers int, snapshot, csvPath, reportsPath, metricsPath string, printRep bool, adversarial, gatewayURL string, gatewayLim int, wire string, shardsN int, logger *slog.Logger) error {
	opts := adaudit.Options{Seed: seed, NumPublishers: publishers}
	if adversarial != "" {
		adv, err := adnet.AdversaryScenario(adversarial)
		if err != nil {
			return err
		}
		pol := adnet.DefaultPolicy()
		pol.Adversary = adv
		opts.Policy = &pol
		logger.Info("adversary enabled", "scenario", adversarial)
	}
	ws, err := adaudit.NewWorkspace(opts)
	if err != nil {
		return err
	}
	campaigns := adnet.PaperCampaigns()
	run, err := ws.Run(campaigns)
	if err != nil {
		return err
	}
	logger.Info("dataset collected",
		"impressions", run.Outcome.TotalLogged(),
		"campaigns", len(campaigns),
		"publishers", len(ws.Store.Publishers("")))

	if snapshot != "" {
		if err := ws.Store.SnapshotCompact(snapshot); err != nil {
			return fmt.Errorf("writing snapshot: %w", err)
		}
	}
	if csvPath != "" {
		if err := writeTo(csvPath, ws.Store.WriteCSV); err != nil {
			return fmt.Errorf("writing csv: %w", err)
		}
	}
	if reportsPath != "" {
		err := writeTo(reportsPath, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(run.Outcome.Reports())
		})
		if err != nil {
			return fmt.Errorf("writing reports: %w", err)
		}
	}
	if printRep {
		rep, err := run.Audit()
		if err != nil {
			return err
		}
		if err := run.WriteReport(os.Stdout, rep); err != nil {
			return err
		}
	}
	if gatewayURL != "" {
		if err := replayThroughGateway(gatewayURL, gatewayLim, wire, ws.Store, logger); err != nil {
			return fmt.Errorf("gateway replay: %w", err)
		}
	}
	if shardsN > 0 {
		if err := replayThroughShards(shardsN, gatewayLim, wire, seed, publishers, ws.Store, logger); err != nil {
			return fmt.Errorf("sharded replay: %w", err)
		}
	}
	// Metrics are written last so the telemetry view covers the audit
	// stages (when -report ran one), not just ingest.
	if metricsPath != "" {
		reg := ws.Collector.Telemetry()
		if reg == nil {
			return fmt.Errorf("writing metrics: collector runs without telemetry")
		}
		if err := writeTo(metricsPath, reg.WriteJSON); err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
	}
	return nil
}

// replayThroughGateway re-emits the collected dataset as real beacon
// sessions against url — the load path for driving an adedge →
// auditd deployment with the simulator's campaign mix. Each impression
// carries a nonce derived from its store ID, so an interrupted replay
// can be rerun without double-counting (the collector drops a leg of a
// nonce it has counted already), and interaction events are
// regenerated from the recorded mousemove/click counts. Exposures are
// compressed (capped at 100ms): a beacon session holds its connection
// open for the exposure in real time, and replaying minutes-long
// exposures faithfully would turn a dataset into hours of wall clock.
func replayThroughGateway(url string, limit int, wire string, st *store.Store, logger *slog.Logger) error {
	switch wire {
	case "text", "binary", "mixed":
	default:
		return fmt.Errorf("unknown -wire %q (want text, binary or mixed)", wire)
	}
	var todo []store.Impression
	st.Visit(func(im *store.Impression) bool {
		todo = append(todo, *im)
		return limit == 0 || len(todo) < limit
	})
	logger.Info("replaying dataset through gateway", "endpoint", url, "wire", wire, "impressions", len(todo))

	const workers = 8
	var acked, failed atomic.Int64
	jobs := make(chan store.Impression)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &beacon.Client{CollectorURL: url, MaxAttempts: 5}
			if wire == "binary" {
				cl.Wire = beacon.WireBinary
			}
			// "mixed" alternates the wire per session on a second
			// client, exercising both codecs against one endpoint.
			binCl := &beacon.Client{CollectorURL: url, MaxAttempts: 5, Wire: beacon.WireBinary}
			for im := range jobs {
				exposure := im.Exposure
				if exposure > 100*time.Millisecond {
					exposure = 100 * time.Millisecond
				}
				var events []beacon.Event
				for i := 0; i < im.MouseMoves; i++ {
					events = append(events, beacon.Event{Kind: beacon.EventMouseMove, At: exposure / 2})
				}
				for i := 0; i < im.Clicks; i++ {
					events = append(events, beacon.Event{Kind: beacon.EventClick, At: exposure / 2})
				}
				p := beacon.Payload{
					CampaignID: im.CampaignID,
					CreativeID: im.CreativeID,
					PageURL:    im.PageURL,
					UserAgent:  im.UserAgent,
					Nonce:      fmt.Sprintf("adsim-replay-%d", im.ID),
					Events:     events,
				}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				rep := cl
				if wire == "mixed" && im.ID%2 == 0 {
					rep = binCl
				}
				err := rep.Report(ctx, p, exposure)
				cancel()
				if err != nil {
					failed.Add(1)
					logger.Debug("replay report failed", "impression", im.ID, "err", err)
				} else {
					acked.Add(1)
				}
			}
		}()
	}
	for _, im := range todo {
		jobs <- im
	}
	close(jobs)
	wg.Wait()

	logger.Info("gateway replay done", "acked", acked.Load(), "failed", failed.Load())
	if failed.Load() > 0 {
		return fmt.Errorf("%d of %d replayed impressions were never acknowledged", failed.Load(), len(todo))
	}
	return nil
}

// writeTo publishes an output file atomically: the content streams to a
// sibling temp file which is renamed into place only once fully written
// and closed, so a crashed or killed run can never leave a torn dataset
// where a previous complete one stood.
func writeTo(path string, write func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
