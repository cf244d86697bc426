package main

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"adaudit/internal/collector"
	"adaudit/internal/gateway"
	"adaudit/internal/ipmeta"
	"adaudit/internal/router"
	"adaudit/internal/shardmerge"
	"adaudit/internal/store"
	"adaudit/internal/streamaudit"
	"adaudit/internal/trace"
)

const (
	trunkToken = "adaudit-benchmark"
	kindDirect = "direct"
	kindGate   = "gateway"
	kindShard  = "sharded"
	// traceRing holds every trace of a traced half-run (≈ 7K sessions/s
	// on this box) so stage percentiles come from the whole run.
	traceRing = 1 << 17
)

// quiet keeps the tiers' routine connection chatter off the benchmark's
// output while still surfacing anything they consider a problem.
var quiet = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))

// shard is one collector in its production configuration: telemetry
// on, WAL attached (SyncOS), and a live streaming-audit engine on the
// store's change feed.
type shard struct {
	st   *store.Store
	wal  *store.WAL
	coll *collector.Collector
	eng  *streamaudit.Engine
	rec  *trace.Recorder // nil unless the run is traced
	srv  *collector.Server
	stop func()
}

// classifier is the data-center classifier over the dataset's IP
// universe, as adaudit.NewWorkspace wires it.
func (d *dataset) classifier() *ipmeta.Classifier {
	ips := d.ws.IPs
	return &ipmeta.Classifier{DB: ips.DB, DenyList: ips.DenyList, ManualVerify: ips.ManualVerify}
}

// newShard builds a collector over a fresh store.
func (d *dataset) newShard(dir string, id int, traced bool) (*shard, error) {
	sh := &shard{st: store.New()}
	wal, err := store.OpenWAL(filepath.Join(dir, fmt.Sprintf("shard%d.wal", id)), store.WALOptions{Policy: store.SyncOS})
	if err != nil {
		return nil, fmt.Errorf("shard %d: opening WAL: %w", id, err)
	}
	sh.wal = wal
	sh.st.AttachWAL(wal)
	var tracer *trace.Tracer
	if traced {
		sh.rec = trace.NewRecorder(traceRing)
		tracer = trace.NewTracer(sh.rec, 1)
	}
	sh.coll, err = collector.New(collector.Config{
		Store:      sh.st,
		IPDB:       d.ws.IPs.DB,
		Classifier: d.classifier(),
		Anonymizer: ipmeta.NewAnonymizer([]byte(trunkToken)),
		TrunkToken: trunkToken,
		Logger:     quiet,
		Tracer:     tracer,
	})
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", id, err)
	}
	sh.eng, err = streamaudit.New(streamaudit.Config{
		Store:     sh.st,
		Meta:      d.meta,
		Keywords:  d.keywords,
		Telemetry: sh.coll.Telemetry(),
	})
	if err != nil {
		return nil, fmt.Errorf("shard %d live engine: %w", id, err)
	}
	sh.stop = func() { _ = sh.wal.Close() }
	return sh, nil
}

// serve puts the shard on a loopback listener. Server.Serve runs the
// mounted engine itself; a second Engine.Run here would split the feed
// between two consumers and resync forever.
func (sh *shard) serve() error {
	srv, err := collector.NewServer(sh.coll, "127.0.0.1:0", collector.WithLiveAudit(sh.eng))
	if err != nil {
		return err
	}
	sh.srv = srv
	closeWAL := sh.stop
	sh.stop = serveUntilStopped(srv.Serve, closeWAL)
	return nil
}

// serveUntilStopped runs serve on its own goroutine and returns the
// function that cancels it, waits for it to return, then runs after.
func serveUntilStopped(serve func(context.Context) error, after func()) func() {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = serve(ctx)
	}()
	return func() {
		cancel()
		<-done
		if after != nil {
			after()
		}
	}
}

// topology is one deployment shape, wired in-process over loopback
// sockets the way cmd/adsim/sharded.go wires it.
type topology struct {
	kind   string
	shards []*shard
	gw     *gateway.Gateway
	rt     *router.Router
	url    string             // beacon endpoint the clients dial
	merge  *shardmerge.Client // sharded only
	stops  []func()           // front tier first: closed in order
}

func (d *dataset) newTopology(kind, dir string, traced bool) (_ *topology, err error) {
	t := &topology{kind: kind}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	n := 1
	if kind == kindShard {
		n = 2
	}
	var trunks, apis []string
	for i := 0; i < n; i++ {
		sh, err := d.newShard(dir, i, traced)
		if err != nil {
			return nil, err
		}
		t.shards = append(t.shards, sh)
		if err := sh.serve(); err != nil {
			return nil, fmt.Errorf("shard %d listen: %w", i, err)
		}
		trunks = append(trunks, fmt.Sprintf("ws://%s/trunk", sh.srv.Addr()))
		apis = append(apis, fmt.Sprintf("http://%s", sh.srv.Addr()))
	}
	healthy := func() bool { return true }
	switch kind {
	case kindDirect:
		t.url = t.shards[0].srv.BeaconURL()
	case kindGate:
		g, err := gateway.New(gateway.Config{CollectorURL: trunks[0], TrunkToken: trunkToken, Logger: quiet})
		if err != nil {
			return nil, err
		}
		srv, err := gateway.NewServer(g, "127.0.0.1:0", gateway.WithDrainGrace(10*time.Second))
		if err != nil {
			return nil, err
		}
		t.gw, t.url = g, srv.BeaconURL()
		t.stops = append(t.stops, serveUntilStopped(srv.Serve, nil))
		healthy = func() bool { return g.Health().Status == "ok" }
	case kindShard:
		r, err := router.New(router.Config{Shards: trunks, TrunkToken: trunkToken, Logger: quiet})
		if err != nil {
			return nil, err
		}
		t.merge = &shardmerge.Client{Shards: apis}
		srv, err := router.NewServer(r, "127.0.0.1:0",
			router.WithDrainGrace(10*time.Second),
			router.WithLiveMerge(t.merge, streamaudit.StaticConfig{Meta: d.meta}))
		if err != nil {
			return nil, err
		}
		t.rt, t.url = r, srv.BeaconURL()
		t.stops = append(t.stops, serveUntilStopped(srv.Serve, nil))
		healthy = func() bool { return r.Health().Status == "ok" }
	default:
		return nil, fmt.Errorf("unknown topology %q", kind)
	}
	if !waitFor(10*time.Second, healthy) {
		return nil, fmt.Errorf("%s tier never established its trunks", kind)
	}
	return t, nil
}

// close stops the front tier, then the shards.
func (t *topology) close() {
	for _, stop := range t.stops {
		stop()
	}
	for _, sh := range t.shards {
		sh.stop()
	}
}

func (t *topology) stored() int {
	n := 0
	for _, sh := range t.shards {
		n += sh.st.Len()
	}
	return n
}

func (t *topology) spillPending() int {
	switch {
	case t.gw != nil:
		return t.gw.Health().SpillPending
	case t.rt != nil:
		return t.rt.Health().SpillPending
	}
	return 0
}

// waitCommitted blocks until every acked impression has left the
// forwarding tier's spill and landed in a shard store.
func (t *topology) waitCommitted(acked int) error {
	if !waitFor(30*time.Second, func() bool { return t.stored() >= acked && t.spillPending() == 0 }) {
		return fmt.Errorf("%s never quiesced: %d of %d acked impressions stored, %d commits still spilled",
			t.kind, t.stored(), acked, t.spillPending())
	}
	return nil
}

// waitApplied blocks until every shard's live engine has applied every
// mutation its store published.
func (t *topology) waitApplied() error {
	for i, sh := range t.shards {
		if !sh.eng.WaitCaughtUp(30 * time.Second) {
			return fmt.Errorf("shard %d: live engine never caught up with the feed", i)
		}
	}
	return nil
}

func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}
