package gateway

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

// BenchmarkGatewayForward measures the full edge path per impression:
// beacon dial → gateway session → trunk batch → collector commit →
// ack back through the gateway. Compare against the collector
// package's BenchmarkWebSocketSession (the direct, no-gateway network
// path) to see what the extra hop costs; cmd/benchgate records both in
// BENCH_gateway.json and holds each under an absolute allocs/op
// ceiling (80 forwarded, 66 direct).
func BenchmarkGatewayForward(b *testing.B) {
	// Silence both processes: cmd/benchgate parses the
	// `BenchmarkGatewayForward ...` result line from stdout, and
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

	cfg := fastConfig(fmt.Sprintf("ws://%s/trunk", csrv.Addr()))
	cfg.Logger = quiet
	g, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	gsrv, err := NewServer(g, "127.0.0.1:0", WithDrainGrace(10*time.Second))
	if err != nil {
		b.Fatal(err)
	}
	gctx, gcancel := context.WithCancel(context.Background())
	gdone := make(chan struct{})
	go func() {
		defer close(gdone)
		_ = gsrv.Serve(gctx)
	}()
	defer func() {
		gcancel()
		<-gdone
	}()

	client := &beacon.Client{CollectorURL: gsrv.BeaconURL()}
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
	// The gateway acks from its spill buffer; wait for every commit to
	// land in the collector so the bench accounts the real work.
	deadline := time.Now().Add(30 * time.Second)
	for st.Len() < b.N && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st.Len() < b.N {
		b.Fatalf("only %d/%d commits reached the collector", st.Len(), b.N)
	}
}
