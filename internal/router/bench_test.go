package router

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"testing"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/collector"
	"adaudit/internal/collector/collectortest"
	"adaudit/internal/ipmeta"
	"adaudit/internal/store"
)

// BenchmarkRouterForward measures the full sharded path per
// impression: beacon dial → router session → shard-pool trunk batch →
// collector commit → ack back through the router. One shard keeps the
// comparison honest: against the collector package's
// BenchmarkWebSocketSession (the direct network path) the delta is the
// router hop itself — hash, spill bookkeeping and the extra trunk leg —
// not a change in shard fan-out. cmd/benchgate records both in
// BENCH_router.json and holds each under an absolute allocs/op ceiling
// (80 forwarded, 66 direct).
func BenchmarkRouterForward(b *testing.B) {
	// Silence both processes: cmd/benchgate parses the
	// `BenchmarkRouterForward ...` result line from stdout, and
	// slog.Default() would interleave trunk-established lines with it.
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	st := store.New()
	c, err := collector.New(collector.Config{
		Store:            st,
		Anonymizer:       ipmeta.NewAnonymizer([]byte("bench")),
		TrunkToken:       collectortest.TrunkToken,
		DisableTelemetry: true,
		Logger:           quiet,
	})
	if err != nil {
		b.Fatal(err)
	}
	csrv, err := collector.NewServer(c, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go csrv.Serve(ctx)

	cfg := fastRouterConfig([]string{fmt.Sprintf("ws://%s/trunk", csrv.Addr())})
	cfg.Logger = quiet
	r, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rsrv, err := NewServer(r, "127.0.0.1:0", WithDrainGrace(10*time.Second))
	if err != nil {
		b.Fatal(err)
	}
	rctx, rcancel := context.WithCancel(context.Background())
	rdone := make(chan struct{})
	go func() {
		defer close(rdone)
		_ = rsrv.Serve(rctx)
	}()
	defer func() {
		rcancel()
		<-rdone
	}()

	client := &beacon.Client{CollectorURL: rsrv.BeaconURL()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := beacon.Payload{
			CampaignID: "bench",
			CreativeID: "cr",
			PageURL:    "http://pub.es/p",
			UserAgent:  "Mozilla/5.0 Chrome/49.0",
			Nonce:      fmt.Sprintf("bench-%08d", i),
		}
		sess, err := client.Open(ctx, p)
		if err != nil {
			b.Fatal(err)
		}
		if err := sess.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// The router acks from its spill buffer; wait for every commit to
	// land in the shard so the bench accounts the real work.
	deadline := time.Now().Add(30 * time.Second)
	for st.Len() < b.N && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st.Len() < b.N {
		b.Fatalf("only %d/%d commits reached the shard", st.Len(), b.N)
	}
}
