package collector

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/daemon"
	"adaudit/internal/faultnet"
	"adaudit/internal/ipmeta"
	"adaudit/internal/store"
	"adaudit/internal/tiertest"
)

// TestChaosCampaignSurvivesFaultsAndCrash is the end-to-end resilience
// proof: a fleet of beacons reports a campaign to a collector whose
// listener kills and resets their connections mid-exposure, the collector
// journals every commit to a WAL, and after the run the WAL is replayed
// into a fresh store as if the daemon had crashed. The invariant under
// test: every impression a beacon got acknowledged (Report returned
// nil) is present in the recovered store, exactly once — network
// violence plus a process crash lose nothing that was acknowledged and
// double-count nothing that was retried.
func TestChaosCampaignSurvivesFaultsAndCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test needs real time for kills and reconnects")
	}

	walPath := filepath.Join(t.TempDir(), "chaos.wal")
	wal, err := store.OpenWAL(walPath, store.WALOptions{Policy: store.SyncOS})
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	st.AttachWAL(wal)
	c, err := New(Config{
		Store:      st,
		Anonymizer: ipmeta.NewAnonymizer([]byte("chaos")),
		// Fast keepalive so severed sessions are detected and committed
		// promptly rather than lingering to the test end.
		KeepAliveInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The chaos layer, on every connection the collector accepts: each
	// beacon connection dies 60–180 ms in, and a few writes are reset on
	// top.
	plan := &faultnet.Plan{
		Seed:           20160329,
		KillAfter:      60 * time.Millisecond,
		KillJitter:     120 * time.Millisecond,
		ResetWriteProb: 0.02,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(c, "", daemon.WithListener(plan.Listen(ln)))
	if err != nil {
		t.Fatal(err)
	}
	stop := tiertest.Serve(t, srv)

	const fleet = 24
	type outcome struct {
		nonce string
		acked bool
	}
	outcomes := make([]outcome, fleet)
	var wg sync.WaitGroup
	for i := 0; i < fleet; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := &beacon.Client{
				CollectorURL:    srv.BeaconURL(),
				MaxAttempts:     10,
				RetryBackoff:    5 * time.Millisecond,
				RetryBackoffMax: 40 * time.Millisecond,
			}
			p := beacon.Payload{
				CampaignID: "Chaos-001",
				CreativeID: fmt.Sprintf("cr-%d", i),
				PageURL:    fmt.Sprintf("http://pub%d.es/page", i%5),
				UserAgent:  "Mozilla/5.0 Chaos",
				Nonce:      beacon.NewNonce(),
				Events: []beacon.Event{
					{Kind: beacon.EventMouseMove, At: 40 * time.Millisecond},
					{Kind: beacon.EventClick, At: 110 * time.Millisecond},
				},
			}
			exposure := time.Duration(150+10*(i%8)) * time.Millisecond
			rctx, rcancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer rcancel()
			err := cl.Report(rctx, p, exposure)
			outcomes[i] = outcome{nonce: p.Nonce, acked: err == nil}
		}(i)
	}
	wg.Wait()

	// The faults actually fired, and at least one beacon reconnected
	// into a nonce merge — otherwise the test proved nothing.
	resets, kills, _, _ := plan.Stats()
	if kills == 0 {
		t.Fatal("chaos plan killed no connections")
	}
	if c.tel.dedupHits.Load() == 0 {
		t.Fatal("no reconnect was deduplicated by nonce; chaos too gentle")
	}
	acked := 0
	for _, o := range outcomes {
		if o.acked {
			acked++
		}
	}
	if acked == 0 {
		t.Fatal("no beacon ever got through; chaos too violent to test the invariant")
	}
	t.Logf("chaos: %d/%d acked, kills=%d resets=%d, %d sessions merged by nonce",
		acked, fleet, kills, resets, c.tel.dedupHits.Load())

	// Drain the collector so every in-flight session commits, then
	// "crash": discard the in-memory store and recover from the WAL
	// alone.
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	rec, _, err := store.RecoverWAL(walPath, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	byNonce := map[string]int{}
	rec.Visit(func(im *store.Impression) bool {
		if im.Nonce != "" {
			byNonce[im.Nonce]++
		}
		return true
	})
	for i, o := range outcomes {
		n := byNonce[o.nonce]
		if o.acked && n == 0 {
			t.Errorf("beacon %d was acknowledged but its impression is gone after recovery", i)
		}
		if n > 1 {
			t.Errorf("nonce of beacon %d appears %d times after recovery; retries double-counted", i, n)
		}
	}
	// Recovered records carry real measurements.
	rec.Visit(func(im *store.Impression) bool {
		if im.Exposure <= 0 {
			t.Errorf("recovered record %d has no exposure", im.ID)
		}
		if im.CampaignID != "Chaos-001" {
			t.Errorf("recovered record %d from campaign %q", im.ID, im.CampaignID)
		}
		return true
	})
	// The recovered store matches what the live store held at drain.
	if rec.Len() != st.Len() {
		t.Errorf("recovered %d records, live store held %d", rec.Len(), st.Len())
	}
}
