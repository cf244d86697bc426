package collector

import (
	"context"
	"fmt"
	"net/netip"
	"path/filepath"
	"testing"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/ipmeta"
	"adaudit/internal/store"
	"adaudit/internal/trace"
)

func benchCollector(b *testing.B, disableTelemetry bool) *Collector {
	b.Helper()
	uni, err := ipmeta.NewUniverse(ipmeta.UniverseConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	c, err := New(Config{
		Store:            store.New(),
		IPDB:             uni.DB,
		Classifier:       &ipmeta.Classifier{DB: uni.DB, DenyList: uni.DenyList, ManualVerify: uni.ManualVerify},
		Anonymizer:       ipmeta.NewAnonymizer([]byte("bench")),
		DisableTelemetry: disableTelemetry,
	})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func benchIngest(b *testing.B, c *Collector) {
	b.Helper()
	base := time.Date(2016, 3, 29, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs := Observation{
			Payload: beacon.Payload{
				CampaignID: "bench",
				CreativeID: "cr",
				PageURL:    fmt.Sprintf("http://pub%d.es/p", i%1000),
				UserAgent:  "Mozilla/5.0 Chrome/49.0",
			},
			RemoteIP:    netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i%250 + 1)}),
			ConnectedAt: base.Add(time.Duration(i) * time.Second),
			Exposure:    3 * time.Second,
		}
		if _, err := c.Ingest(obs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectorIngest measures the instrumented ingest funnel —
// the production configuration, telemetry on. Compare against
// BenchmarkCollectorIngestUninstrumented to see the observability
// overhead; the budget is <5%.
func BenchmarkCollectorIngest(b *testing.B) {
	benchIngest(b, benchCollector(b, false))
}

// BenchmarkCollectorIngestUninstrumented is the same funnel with
// DisableTelemetry set: no registry, no histograms, no clock reads.
func BenchmarkCollectorIngestUninstrumented(b *testing.B) {
	benchIngest(b, benchCollector(b, true))
}

// BenchmarkIngest measures the direct ingest funnel: payload →
// enrichment (LPM lookup, classification, pseudonymisation) → store.
func BenchmarkIngest(b *testing.B) {
	benchIngest(b, benchCollector(b, false))
}

// benchTracedCollector is benchCollector with a flight recorder and
// tracer attached — the configuration the trace-overhead gate
// compares against the tracer-less funnel. Telemetry stays off so the
// comparison isolates the tracing cost.
func benchTracedCollector(b *testing.B) *Collector {
	b.Helper()
	uni, err := ipmeta.NewUniverse(ipmeta.UniverseConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	c, err := New(Config{
		Store:            store.New(),
		IPDB:             uni.DB,
		Classifier:       &ipmeta.Classifier{DB: uni.DB, DenyList: uni.DenyList, ManualVerify: uni.ManualVerify},
		Anonymizer:       ipmeta.NewAnonymizer([]byte("bench")),
		DisableTelemetry: true,
		Tracer:           trace.NewTracer(trace.NewRecorder(trace.DefaultCapacity), 1),
	})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkIngestUntraced measures the ingest funnel with a tracer
// attached but no trace context on any payload — the cost every
// unsampled impression pays when tracing is enabled. The perf gate
// (cmd/benchgate) holds this within 5% of
// BenchmarkCollectorIngestUninstrumented, the tracer-less funnel, and
// at the same 3 allocs/op.
func BenchmarkIngestUntraced(b *testing.B) {
	benchIngest(b, benchTracedCollector(b))
}

// BenchmarkIngestTraced measures the fully traced funnel: every
// payload carries wire trace context, so each iteration adopts,
// stages, commits and finishes one flight-recorder trace.
func BenchmarkIngestTraced(b *testing.B) {
	c := benchTracedCollector(b)
	base := time.Date(2016, 3, 29, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs := Observation{
			Payload: beacon.Payload{
				CampaignID: "bench",
				CreativeID: "cr",
				PageURL:    fmt.Sprintf("http://pub%d.es/p", i%1000),
				UserAgent:  "Mozilla/5.0 Chrome/49.0",
				TraceID:    trace.NextID().String(),
				TraceSent:  base.UnixNano(),
			},
			RemoteIP:    netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i%250 + 1)}),
			ConnectedAt: base.Add(time.Duration(i) * time.Second),
			Exposure:    3 * time.Second,
		}
		if _, err := c.Ingest(obs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWebSocketSession measures the full network path: dial,
// handshake, payload frame, disconnect, commit — one real impression
// per iteration.
func BenchmarkWebSocketSession(b *testing.B) {
	c := benchCollector(b, false)
	srv, err := NewServer(c, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.Serve(ctx)

	client := &beacon.Client{CollectorURL: srv.BeaconURL()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := beacon.Payload{
			CampaignID: "bench",
			CreativeID: "cr",
			PageURL:    "http://pub.es/p",
			UserAgent:  "Mozilla/5.0 Chrome/49.0",
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
	// Wait for the async commits so the bench accounts real work.
	deadline := time.Now().Add(10 * time.Second)
	for c.Metrics.Ingested.Load() < int64(b.N) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkIngestBinary measures the zero-copy binary ingest path:
// pre-encoded wire frames decoded through the pooled payload + intern
// cache into the store. Frames are encoded outside the timed loop so
// the measurement isolates decode+ingest; the steady-state budget is
// ≤1 alloc/op (cmd/benchgate's table gates it).
func BenchmarkIngestBinary(b *testing.B) {
	c := benchCollector(b, false)
	base := time.Date(2016, 3, 29, 0, 0, 0, 0, time.UTC)
	frames := make([][]byte, 1000)
	for i := range frames {
		frames[i] = beacon.Payload{
			CampaignID: "bench",
			CreativeID: "cr",
			PageURL:    fmt.Sprintf("http://pub%d.es/p", i),
			UserAgent:  "Mozilla/5.0 Chrome/49.0",
		}.EncodeBinary()
	}
	ips := make([]netip.Addr, 250)
	for i := range ips {
		ips[i] = netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i%250 + 1)})
	}
	// Warm the enrichment/intern caches so the loop measures
	// steady state, not first-touch misses.
	for i := 0; i < len(frames); i++ {
		if _, err := c.IngestBinary(frames[i], ips[i%len(ips)], base.Add(time.Duration(i)*time.Second), 3*time.Second); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.IngestBinary(frames[i%1000], ips[i%250], base.Add(time.Duration(i)*time.Second), 3*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestJournaled is the commit path as production runs it,
// where BenchmarkIngestBinary is its steady-state floor: a journal
// attached (SyncOS), and per impression a fresh nonce, a page URL
// never seen before and one of 36,000 device addresses — the paper
// dataset's shape, on which neither the intern table nor the
// enrichment cache can hold the working set — text and binary
// alternating, as the end-to-end benchmark's ingest_inproc drives it.
// Inputs are built with the timer stopped, so allocs/op is the
// collector's and the store's alone: the page URL and nonce copies of a
// binary decode, pseudonym and user key for a new address, the
// campaign's posting list doubling, 1/1024 of a log chunk — and no
// journal entry, URL parse, claim channel or per-user index entry
// (cmd/benchgate's table holds the ceiling, 1, at a fixed 130,000
// iterations).
func BenchmarkIngestJournaled(b *testing.B) {
	c := benchCollector(b, false)
	wal, err := store.OpenWAL(filepath.Join(b.TempDir(), "bench.wal"), store.WALOptions{Policy: store.SyncOS})
	if err != nil {
		b.Fatal(err)
	}
	defer wal.Close()
	c.cfg.Store.AttachWAL(wal)
	base := time.Date(2016, 3, 29, 0, 0, 0, 0, time.UTC)
	const batch, addrs = 4096, 36000
	obs := make([]Observation, batch)
	frames := make([][]byte, batch)
	b.ReportAllocs()
	for done := 0; done < b.N; done += batch {
		b.StopTimer()
		n := min(batch, b.N-done)
		for j := 0; j < n; j++ {
			i := done + j
			a := uint32(i) * 2654435761 % addrs
			obs[j] = Observation{
				Payload: beacon.Payload{
					CampaignID: "bench",
					CreativeID: "cr",
					PageURL:    fmt.Sprintf("http://pub%d.es/articulo/%d?ref=home", i%5000, i),
					UserAgent:  fmt.Sprintf("Mozilla/5.0 Chrome/%d.0", 40+i%8),
					Nonce:      fmt.Sprintf("n-%016x", i),
				},
				RemoteIP:    netip.AddrFrom4([4]byte{10, byte(a >> 16), byte(a >> 8), byte(a)}),
				ConnectedAt: base.Add(time.Duration(i) * time.Second),
				Exposure:    3 * time.Second,
			}
			if i%2 == 1 {
				frames[j] = obs[j].Payload.EncodeBinary()
			}
		}
		b.StartTimer()
		for j := 0; j < n; j++ {
			var err error
			if (done+j)%2 == 1 {
				_, err = c.IngestBinary(frames[j], obs[j].RemoteIP, obs[j].ConnectedAt, obs[j].Exposure)
			} else {
				_, err = c.Ingest(obs[j])
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}
