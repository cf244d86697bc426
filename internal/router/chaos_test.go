package router

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
	"adaudit/internal/collector/collectortest"
	"adaudit/internal/daemon"
	"adaudit/internal/gateway"
	"adaudit/internal/memnet"
	"adaudit/internal/publisher"
	"adaudit/internal/shardmerge"
	"adaudit/internal/store"
	"adaudit/internal/streamaudit"
	"adaudit/internal/tiertest"
	"adaudit/internal/wsproto"
)

// TestChaosRouterShardRestart is the sharded tier's acceptance test: a
// beacon fleet reports into a router whose listener injects faults — a
// quarter of it through a gateway whose trunks ride that listener into
// the router's /trunk relay — while one of the two shards is killed
// mid-run, its store recovered from the WAL alone — its nonce index,
// rebuilt from the journal, drops every leg it already holds — and a
// fresh collector rebinds the same address. The router's circuit
// breakers must re-home its trunks onto the restarted shard and flush
// the spill built up during the outage; the relay holds none of it, so
// the gateway's spill must replay its share through the router once the
// shard is back. Invariants:
// every acked impression is present exactly once in the union of the
// shard stores, each on exactly the shard its nonce hashes to, and the
// merged per-shard streaming audit equals the batch FullAudit over the
// combined store.
func TestChaosRouterShardRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test needs real time for kills, restarts and replays")
	}
	walPath := filepath.Join(t.TempDir(), "shard0.wal")
	wal, err := store.OpenWAL(walPath, store.WALOptions{Policy: store.SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	st0 := store.New()
	st0.AttachWAL(wal)
	st1 := store.New()

	nw := &memnet.Network{Buffer: 64 << 10}
	listen := func(addr string, faults *memnet.Faults) *memnet.Listener {
		ln, err := nw.ListenFaulty(addr, faults)
		if err != nil {
			t.Fatal(err)
		}
		return ln
	}
	const shard0Addr, shard1Addr = "shard0:80", "shard1:80"
	_, stop0 := collectortest.Serve(t, st0, listen(shard0Addr, nil), nil)
	collectortest.Serve(t, st1, listen(shard1Addr, nil), nil)

	cfg := fastRouterConfig([]string{"ws://" + shard0Addr + "/trunk", "ws://" + shard1Addr + "/trunk"})
	cfg.TrunksPerShard = 2
	cfg.Dialer = wsproto.Dialer{NetDial: nw.Dial}
	// Client-leg chaos, on every connection the router accepts: beacon
	// connections are killed mid-exposure and occasionally reset
	// mid-write; the client retries with its nonce.
	clientPlan := &memnet.Faults{
		Seed:           20160329,
		KillAfter:      60 * time.Millisecond,
		KillJitter:     120 * time.Millisecond,
		ResetWriteProb: 0.02,
	}
	r, rsrv := startRouter(t, cfg, daemon.WithListener(listen("router:80", clientPlan)))
	tiertest.WaitFor(t, "shard trunks to establish", func() bool { return allTrunksUp(r) })
	g, err := gateway.New(gateway.Config{
		CollectorURL:      trunkURL(rsrv),
		TrunkToken:        cfg.TrunkToken,
		Dialer:            wsproto.Dialer{NetDial: nw.Dial},
		KeepAliveInterval: cfg.KeepAliveInterval,
		AckTimeout:        cfg.AckTimeout,
		ReplayInterval:    cfg.ReplayInterval,
		BreakerCooldown:   cfg.BreakerCooldown,
	})
	if err != nil {
		t.Fatal(err)
	}
	gsrv, err := gateway.NewServer(g, "", gateway.WithDrainGrace(time.Second),
		daemon.WithListener(listen("gateway:80", clientPlan)))
	if err != nil {
		t.Fatal(err)
	}
	tiertest.Serve(t, gsrv)

	pubs, err := publisher.NewUniverse(publisher.Config{Seed: 5, NumPublishers: 60})
	if err != nil {
		t.Fatal(err)
	}

	const fleet = 32
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
			// Stagger starts so the fleet's activity spans the shard
			// outage window instead of finishing before it.
			time.Sleep(time.Duration(i) * 25 * time.Millisecond)
			clientURL := rsrv.BeaconURL()
			if i%4 == 3 {
				clientURL = gsrv.BeaconURL()
			}
			cl := &beacon.Client{
				CollectorURL:    clientURL,
				Dialer:          wsproto.Dialer{NetDial: nw.Dial},
				MaxAttempts:     12,
				RetryBackoff:    5 * time.Millisecond,
				RetryBackoffMax: 40 * time.Millisecond,
			}
			p := beacon.Payload{
				CampaignID: "RouterChaos-001",
				CreativeID: fmt.Sprintf("cr-%d", i),
				PageURL:    fmt.Sprintf("http://%s/page", pubs.At(i%8).Domain),
				UserAgent:  "Mozilla/5.0 Chaos",
				Nonce:      fmt.Sprintf("rtchaos-%04d", i),
				Events: []beacon.Event{
					{Kind: beacon.EventMouseMove, At: 40 * time.Millisecond},
					{Kind: beacon.EventClick, At: 110 * time.Millisecond},
				},
			}
			exposure := time.Duration(150+10*(i%8)) * time.Millisecond
			rctx, rcancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer rcancel()
			err := cl.Report(rctx, p, exposure)
			outcomes[i] = outcome{nonce: p.Nonce, acked: err == nil}
		}(i)
	}

	// Mid-run, shard 0 "crashes": its server is torn down, the store
	// recovered from the WAL alone, and a fresh collector rebinds the
	// same address. The outage lasts long enough that commits hashing
	// to shard 0 are acked purely from the spill buffer of the tier that
	// terminated their session: the router's, or the gateway's.
	time.Sleep(250 * time.Millisecond)
	_ = stop0()
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	st0b, applied, err := store.RecoverWAL(walPath, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	t.Logf("chaos: shard 0 restarted with %d WAL entries recovered, %d commits spilled toward it at the router, %d at the gateway",
		applied, r.Health().Pools[0].SpillPending, g.Health().SpillPending)
	wal2, err := store.OpenWAL(walPath, store.WALOptions{Policy: store.SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	st0b.AttachWAL(wal2)
	collectortest.Serve(t, st0b, listen(shard0Addr, nil), nil)

	wg.Wait()

	clientKills := clientPlan.Kills.Load()
	if clientKills == 0 {
		t.Fatal("chaos too gentle: no client connection was killed")
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

	// Drain the gateway, then the router that relays for it: every commit
	// either acknowledged must flush to its shard — including the spill
	// built up while shard 0 was dead.
	if left := g.Drain(15 * time.Second); left != 0 {
		t.Fatalf("gateway drain left %d acked commits undelivered (loss)", left)
	}
	if left := r.Drain(15 * time.Second); left != 0 {
		t.Fatalf("router drain left %d acked commits undelivered (loss)", left)
	}
	breakerOpens := seriesSum(r, "adaudit_router_shard_breaker_opens_total")
	replays := seriesSum(r, "adaudit_router_shard_replays_total")
	t.Logf("chaos: %d/%d acked, clientKills=%d replays=%v breakerOpens=%v relayFrames=%v",
		acked, fleet, clientKills, replays, breakerOpens, seriesSum(r, "adaudit_router_relay_frames_total"))
	if breakerOpens == 0 {
		t.Error("shard 0's trunk breakers never opened; the outage went unnoticed")
	}

	// Zero loss, exactly once, on the union of the surviving stores —
	// and every record on exactly the shard its nonce hashes to.
	finals := []*store.Store{st0b, st1}
	byNonce := map[string]int{}
	for i, st := range finals {
		st.Visit(func(im *store.Impression) bool {
			if im.Nonce == "" {
				t.Errorf("shard %d: impression %d has no nonce", i, im.ID)
				return true
			}
			byNonce[im.Nonce]++
			if want := shardmerge.ShardFor(im.Nonce, len(finals)); want != i {
				t.Errorf("nonce %q on shard %d, hash owns shard %d", im.Nonce, i, want)
			}
			return true
		})
	}
	for i, o := range outcomes {
		n := byNonce[o.nonce]
		if o.acked && n == 0 {
			t.Errorf("beacon %d acked but absent from every shard (zero-loss violated)", i)
		}
		if n > 1 {
			t.Errorf("nonce of beacon %d appears %d times across shards (replay double-counted)", i, n)
		}
	}

	// Audit equality through the merge layer: one unmodified streaming
	// engine per surviving shard, exports merged in shard order, must
	// report exactly what the batch FullAudit computes over the
	// combined store.
	combined := store.New()
	for _, st := range finals {
		var ierr error
		st.Visit(func(im *store.Impression) bool {
			_, ierr = combined.Insert(*im)
			return ierr == nil
		})
		if ierr != nil {
			t.Fatal(ierr)
		}
	}
	meta := audit.UniverseMetadata{Universe: pubs}
	inputs := auditInputsFromStore(combined)
	aud, err := audit.New(combined, meta)
	if err != nil {
		t.Fatal(err)
	}
	want, err := aud.FullAuditSerial(inputs)
	if err != nil {
		t.Fatal(err)
	}
	exports := make([]*streamaudit.Export, len(finals))
	for i, st := range finals {
		eng, err := streamaudit.New(streamaudit.Config{Store: st, Meta: meta})
		if err != nil {
			t.Fatal(err)
		}
		eng.Drain()
		exports[i] = eng.Export()
	}
	merged, err := streamaudit.NewStatic(streamaudit.StaticConfig{Meta: meta}, shardmerge.Merge(exports))
	if err != nil {
		t.Fatal(err)
	}
	got, err := merged.Report(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("merged shard audit diverges from batch FullAudit over the combined store")
	}
}

// auditInputsFromStore synthesizes per-campaign vendor reports from the
// store itself, the way the simtest oracle builds them from its model —
// the audit then cross-checks the store against a report that agrees
// with it by construction, so merged-vs-batch equality is the only
// thing under test.
func auditInputsFromStore(st *store.Store) []audit.CampaignInput {
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
