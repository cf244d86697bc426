package simtest

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/collector"
	"adaudit/internal/daemon"
	"adaudit/internal/ipmeta"
	"adaudit/internal/memnet"
	"adaudit/internal/stats"
	"adaudit/internal/store"
	"adaudit/internal/wsproto"
)

// TestSimWire is the wire-level phase of the harness: where TestSim
// drives the ingest funnel directly on a virtual clock, this phase
// explores seeded chaos schedules over the in-memory network — each
// seed configures a different fault mix (mid-exposure kills, write
// resets, truncated frames) on the collector's listener and a beacon
// fleet that reports with retries. Real time makes byte-level determinism
// impossible, so the oracle relaxes to the order-insensitive
// invariants: an acknowledged report is present exactly once after WAL
// recovery (zero-loss + nonce no-duplication), and the recovered store
// equals the drained live store.
func TestSimWire(t *testing.T) {
	if testing.Short() {
		t.Skip("wire phase needs real time for kills and reconnects")
	}
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runWireSchedule(t, seed)
		})
	}
}

func runWireSchedule(t *testing.T, seed int64) {
	rng := stats.NewRNG(seed).Fork("wire")

	walPath := filepath.Join(t.TempDir(), "wire.wal")
	wal, err := store.OpenWAL(walPath, store.WALOptions{Policy: store.SyncOS})
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	st.AttachWAL(wal)
	c, err := collector.New(collector.Config{
		Store:      st,
		Anonymizer: ipmeta.NewAnonymizer([]byte("simwire")),
		// Fast keepalive so severed sessions commit promptly.
		KeepAliveInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each seed picks a different point in fault space, injected on every
	// connection the collector accepts.
	plan := &memnet.Faults{
		Seed:             seed,
		KillAfter:        time.Duration(40+rng.Intn(60)) * time.Millisecond,
		KillJitter:       time.Duration(60+rng.Intn(120)) * time.Millisecond,
		ResetWriteProb:   0.01 * float64(rng.Intn(4)),
		TruncateProb:     0.01 * float64(rng.Intn(3)),
		PartialWriteProb: 0.05 * float64(rng.Intn(3)),
	}
	nw := &memnet.Network{Buffer: 64 << 10}
	ln, err := nw.ListenFaulty("collector:80", plan)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := collector.NewServer(c, "", daemon.WithListener(ln))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ctx)
	}()

	const fleet = 16
	type outcome struct {
		nonce string
		acked bool
	}
	outcomes := make([]outcome, fleet)
	var wg sync.WaitGroup
	for i := 0; i < fleet; i++ {
		exposure := time.Duration(120+rng.Intn(120)) * time.Millisecond
		wg.Add(1)
		go func(i int, exposure time.Duration) {
			defer wg.Done()
			cl := &beacon.Client{
				CollectorURL:    srv.BeaconURL(),
				Dialer:          wsproto.Dialer{NetDial: nw.Dial},
				MaxAttempts:     10,
				RetryBackoff:    5 * time.Millisecond,
				RetryBackoffMax: 40 * time.Millisecond,
			}
			p := beacon.Payload{
				CampaignID: "sim-wire",
				CreativeID: fmt.Sprintf("cr-%d", i),
				PageURL:    fmt.Sprintf("http://pub%d.es/page", i%4),
				UserAgent:  "Mozilla/5.0 SimWire",
				Nonce:      fmt.Sprintf("wire-%d-%04d", seed, i),
				Events: []beacon.Event{
					{Kind: beacon.EventMouseMove, At: 30 * time.Millisecond},
				},
			}
			rctx, rcancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer rcancel()
			err := cl.Report(rctx, p, exposure)
			outcomes[i] = outcome{nonce: p.Nonce, acked: err == nil}
		}(i, exposure)
	}
	wg.Wait()

	kills := plan.Kills.Load()
	acked := 0
	for _, o := range outcomes {
		if o.acked {
			acked++
		}
	}
	t.Logf("wire seed %d: %d/%d acked, kills=%d", seed, acked, fleet, kills)
	switch {
	case acked == 0:
		t.Fatal("no beacon ever got through; schedule too violent to test the invariant")
	case kills == 0:
		t.Fatal("schedule too gentle: it killed no connection")
	}

	// Drain every in-flight session, crash, recover from the journal.
	cancel()
	select {
	case <-served:
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain")
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	rec, _, err := store.RecoverWAL(walPath, nil, discardLogger())
	if err != nil {
		t.Fatal(err)
	}

	byNonce := map[string]int{}
	rec.Visit(func(im *store.Impression) bool {
		if im.Nonce != "" {
			byNonce[im.Nonce]++
		}
		if im.Exposure < 0 {
			t.Errorf("recovered record %d has negative exposure %v", im.ID, im.Exposure)
		}
		return true
	})
	for i, o := range outcomes {
		n := byNonce[o.nonce]
		if o.acked && n == 0 {
			t.Errorf("beacon %d acked but absent after recovery (zero-loss violated)", i)
		}
		if n > 1 {
			t.Errorf("nonce of beacon %d appears %d times (no-duplication violated)", i, n)
		}
	}
	liveRecs, recRecs := dumpStore(st), dumpStore(rec)
	if len(liveRecs) != len(recRecs) {
		t.Fatalf("recovered %d records, live store held %d", len(recRecs), len(liveRecs))
	}
	for i := range liveRecs {
		if !impressionEqual(liveRecs[i], recRecs[i]) {
			t.Errorf("record %d diverges after recovery", liveRecs[i].ID)
		}
	}
}
