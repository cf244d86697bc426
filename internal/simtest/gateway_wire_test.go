package simtest

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"adaudit/internal/adnet"
	"adaudit/internal/audit"
	"adaudit/internal/beacon"
	"adaudit/internal/collector"
	"adaudit/internal/faultnet"
	"adaudit/internal/gateway"
	"adaudit/internal/ipmeta"
	"adaudit/internal/publisher"
	"adaudit/internal/stats"
	"adaudit/internal/store"
	"adaudit/internal/streamaudit"
)

const gatewayWireTrunkToken = "simtest-trunk"

// TestSimGatewayWire extends the wire phase with the edge gateway
// tier: a beacon fleet reports through a fault-injected client leg
// into a gateway, which forwards over trunks to a collector that is
// killed and WAL-recovered mid-run on the same address. The gateway's
// spill buffer must carry every acknowledged commit across the
// restart, so the oracle's order-insensitive invariants extend to the
// two-hop path: an acked report is present exactly once after
// recovery (zero loss + nonce dedup through gateway replay), the
// drained store round-trips through the journal unchanged, and the
// streaming audit over the survivor equals the batch FullAudit.
func TestSimGatewayWire(t *testing.T) {
	if testing.Short() {
		t.Skip("gateway wire phase needs real time for the restart and replays")
	}
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runGatewayWireSchedule(t, seed)
		})
	}
}

func runGatewayWireSchedule(t *testing.T, seed int64) {
	rng := stats.NewRNG(seed).Fork("gateway-wire")

	walPath := filepath.Join(t.TempDir(), "gwwire.wal")
	wal, err := store.OpenWAL(walPath, store.WALOptions{Policy: store.SyncOS})
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	st.AttachWAL(wal)
	newCollector := func(s *store.Store) *collector.Collector {
		c, err := collector.New(collector.Config{
			Store:             s,
			Anonymizer:        ipmeta.NewAnonymizer([]byte("simgw")),
			TrunkToken:        gatewayWireTrunkToken,
			KeepAliveInterval: 50 * time.Millisecond,
			Logger:            discardLogger(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	startCollector := func(c *collector.Collector, addr string) (*collector.Server, func()) {
		srv, err := collector.NewServer(c, addr)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = srv.Serve(ctx)
		}()
		stopped := false
		stop := func() {
			if stopped {
				return
			}
			stopped = true
			cancel()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("collector server did not stop")
			}
		}
		t.Cleanup(stop)
		return srv, stop
	}

	csrvA, stopA := startCollector(newCollector(st), "127.0.0.1:0")
	collectorAddr := csrvA.Addr().String()

	g, err := gateway.New(gateway.Config{
		CollectorURL:      fmt.Sprintf("ws://%s/trunk", collectorAddr),
		TrunkToken:        gatewayWireTrunkToken,
		GatewayID:         fmt.Sprintf("gw-sim-%d", seed),
		Trunks:            2,
		KeepAliveInterval: 50 * time.Millisecond,
		AckTimeout:        300 * time.Millisecond,
		ReplayInterval:    50 * time.Millisecond,
		BreakerThreshold:  3,
		BreakerCooldown:   50 * time.Millisecond,
		Logger:            discardLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	gsrv, err := gateway.NewServer(g, "127.0.0.1:0", gateway.WithDrainGrace(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	gctx, gcancel := context.WithCancel(context.Background())
	gdone := make(chan struct{})
	go func() {
		defer close(gdone)
		_ = gsrv.Serve(gctx)
	}()
	t.Cleanup(func() {
		gcancel()
		select {
		case <-gdone:
		case <-time.After(15 * time.Second):
			t.Fatal("gateway server did not stop")
		}
	})

	// Client-leg chaos between the fleet and the gateway; the trunk leg
	// sees the collector restart instead of packet-level faults here
	// (the gateway package's chaos test covers both at once).
	plan := &faultnet.Plan{
		Seed:           seed,
		KillAfter:      time.Duration(40+rng.Intn(60)) * time.Millisecond,
		KillJitter:     time.Duration(60+rng.Intn(120)) * time.Millisecond,
		ResetWriteProb: 0.01 * float64(rng.Intn(4)),
	}
	proxy, err := faultnet.NewProxy("127.0.0.1:0", gsrv.Addr().String(), plan)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	proxyURL := fmt.Sprintf("ws://%s/beacon", proxy.Addr())

	pubs, err := publisher.NewUniverse(publisher.Config{Seed: seed, NumPublishers: 60})
	if err != nil {
		t.Fatal(err)
	}

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
			// Stagger so sessions commit before, during and after the
			// collector outage.
			time.Sleep(time.Duration(i) * 25 * time.Millisecond)
			cl := &beacon.Client{
				CollectorURL:    proxyURL,
				MaxAttempts:     10,
				RetryBackoff:    5 * time.Millisecond,
				RetryBackoffMax: 40 * time.Millisecond,
			}
			p := beacon.Payload{
				CampaignID: "sim-gateway-wire",
				CreativeID: fmt.Sprintf("cr-%d", i),
				PageURL:    fmt.Sprintf("http://%s/page", pubs.At(i%8).Domain),
				UserAgent:  "Mozilla/5.0 SimGatewayWire",
				Nonce:      fmt.Sprintf("gwwire-%d-%04d", seed, i),
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

	// Mid-run collector crash + WAL recovery on the same address. While
	// it is down, sessions keep committing: the gateway acks them from
	// its spill buffer and replays once the restarted collector's trunk
	// endpoint is back.
	time.Sleep(150 * time.Millisecond)
	stopA()
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	st2, applied, err := store.RecoverWAL(walPath, nil, discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	wal2, err := store.OpenWAL(walPath, store.WALOptions{Policy: store.SyncOS})
	if err != nil {
		t.Fatal(err)
	}
	st2.AttachWAL(wal2)
	_, stopB := startCollector(newCollector(st2), collectorAddr)

	wg.Wait()

	acked := 0
	for _, o := range outcomes {
		if o.acked {
			acked++
		}
	}
	_, kills, _, _ := plan.Stats()
	t.Logf("gateway wire seed %d: %d/%d acked, clientKills=%d, %d WAL entries at restart",
		seed, acked, fleet, kills, applied)
	if acked == 0 {
		t.Fatal("no beacon ever got through; schedule too violent to test the invariant")
	}

	// The drain must flush every acked commit into the restarted
	// collector — anything left would be loss.
	if left := g.Drain(15 * time.Second); left != 0 {
		t.Fatalf("gateway drain left %d acked commits undelivered (loss)", left)
	}

	// Crash the survivor too: the recovered-from-recovered store must
	// round-trip the journal unchanged.
	stopB()
	if err := wal2.Close(); err != nil {
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
	liveRecs, recRecs := dumpStore(st2), dumpStore(rec)
	if len(liveRecs) != len(recRecs) {
		t.Fatalf("recovered %d records, live store held %d", len(recRecs), len(liveRecs))
	}
	for i := range liveRecs {
		if !impressionEqual(liveRecs[i], recRecs[i]) {
			t.Errorf("record %d diverges after recovery", liveRecs[i].ID)
		}
	}

	// Stream-vs-batch audit equality over the surviving dataset.
	meta := audit.UniverseMetadata{Universe: pubs}
	inputs := gatewayWireAuditInputs(rec)
	aud, err := audit.New(rec, meta)
	if err != nil {
		t.Fatal(err)
	}
	want, err := aud.FullAuditSerial(inputs)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := streamaudit.New(streamaudit.Config{Store: rec, Meta: meta})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Report(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("streaming audit diverges from batch FullAudit on the surviving store")
	}
}

// gatewayWireAuditInputs synthesizes per-campaign vendor reports that
// agree with the store by construction, so batch-vs-streaming equality
// is the only thing under test (the same trick the oracle's
// auditInputs plays with its model).
func gatewayWireAuditInputs(st *store.Store) []audit.CampaignInput {
	type pubCount struct {
		impressions int64
		clicks      int64
	}
	perCampaign := map[string]map[string]*pubCount{}
	st.Visit(func(im *store.Impression) bool {
		pubs := perCampaign[im.CampaignID]
		if pubs == nil {
			pubs = map[string]*pubCount{}
			perCampaign[im.CampaignID] = pubs
		}
		pc := pubs[im.Publisher]
		if pc == nil {
			pc = &pubCount{}
			pubs[im.Publisher] = pc
		}
		pc.impressions++
		pc.clicks += int64(im.Clicks)
		return true
	})
	var ids []string
	for id := range perCampaign {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var inputs []audit.CampaignInput
	for _, id := range ids {
		rep := &adnet.VendorReport{CampaignID: id}
		var total int64
		for pub, pc := range perCampaign[id] {
			rep.Rows = append(rep.Rows, adnet.ReportRow{
				Publisher:   pub,
				Impressions: pc.impressions,
				Clicks:      pc.clicks,
			})
			total += pc.impressions
		}
		sort.Slice(rep.Rows, func(a, b int) bool {
			if rep.Rows[a].Impressions != rep.Rows[b].Impressions {
				return rep.Rows[a].Impressions > rep.Rows[b].Impressions
			}
			return rep.Rows[a].Publisher < rep.Rows[b].Publisher
		})
		rep.TotalImpressionsCharged = total
		rep.ContextualImpressions = total * 2 / 3
		rep.RefundedImpressions = total / 10
		inputs = append(inputs, audit.CampaignInput{ID: id, Report: rep})
	}
	return inputs
}
