package gateway

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
	"adaudit/internal/memnet"
	"adaudit/internal/publisher"
	"adaudit/internal/store"
	"adaudit/internal/streamaudit"
	"adaudit/internal/wsproto"
)

// TestChaosGatewayZeroLoss is the tentpole acceptance test: a beacon
// fleet reports through the full edge path with fault injection on BOTH
// legs — the gateway's and the collector's listeners severing client
// and trunk connections — while the collector is killed and restarted
// from its WAL mid-run. The invariants: every impression a client was
// acknowledged for is present in the surviving store exactly once
// (zero loss, no double-counting through gateway replay + nonce dedup),
// and the streaming audit over the surviving store equals the batch
// FullAudit (the gatewayed path feeds both pipelines identically).
func TestChaosGatewayZeroLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test needs real time for kills, restarts and replays")
	}
	// Both restart legs (pre-crash journal, post-recovery journal) run
	// under each policy: "os" is the historical baseline, "group"
	// proves group commit keeps the zero-loss invariant while batching
	// fsyncs across the concurrently-committing trunk sessions.
	for name, policy := range map[string]store.SyncPolicy{"os": store.SyncOS, "group": store.SyncGroup} {
		t.Run(name, func(t *testing.T) { runChaosGatewayZeroLoss(t, policy) })
	}
}

func runChaosGatewayZeroLoss(t *testing.T, policy store.SyncPolicy) {
	walPath := filepath.Join(t.TempDir(), "gwchaos.wal")
	wal, err := store.OpenWAL(walPath, store.WALOptions{Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	st.AttachWAL(wal)
	// Trunk-leg chaos, on every connection the collector accepts: the
	// gateway's trunks die repeatedly and crawl under a seeded bandwidth
	// throttle.
	trunkPlan := &memnet.Faults{
		Seed:                   7,
		KillAfter:              150 * time.Millisecond,
		KillJitter:             250 * time.Millisecond,
		SlowLinkProb:           0.5,
		SlowLinkBytesPerSecond: 512 << 10,
	}
	nw := &memnet.Network{Buffer: 64 << 10}
	faulted := func(plan *memnet.Faults, addr string) *memnet.Listener {
		ln, err := nw.ListenFaulty(addr, plan)
		if err != nil {
			t.Fatal(err)
		}
		return ln
	}
	const collectorAddr = "collector:80"
	_, stopA := collectortest.Serve(t, st, faulted(trunkPlan, collectorAddr), nil)

	cfg := fastConfig(trunkURL(collectorAddr))
	cfg.Trunks = 2
	cfg.Dialer = wsproto.Dialer{NetDial: nw.Dial}
	// Client-leg chaos, on every connection the gateway accepts: beacon
	// connections are killed mid-exposure and occasionally reset
	// mid-write; the client retries with its nonce.
	clientPlan := &memnet.Faults{
		Seed:           20160329,
		KillAfter:      60 * time.Millisecond,
		KillJitter:     120 * time.Millisecond,
		ResetWriteProb: 0.02,
	}
	g, gsrv := startGateway(t, cfg, daemon.WithListener(faulted(clientPlan, "gateway:80")))
	clientURL := gsrv.BeaconURL()

	pubs, err := publisher.NewUniverse(publisher.Config{Seed: 5, NumPublishers: 60})
	if err != nil {
		t.Fatal(err)
	}

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
			// Stagger starts so the fleet's activity spans the collector
			// outage window instead of finishing before it.
			time.Sleep(time.Duration(i) * 30 * time.Millisecond)
			cl := &beacon.Client{
				CollectorURL:    clientURL,
				Dialer:          wsproto.Dialer{NetDial: nw.Dial},
				MaxAttempts:     12,
				RetryBackoff:    5 * time.Millisecond,
				RetryBackoffMax: 40 * time.Millisecond,
			}
			p := beacon.Payload{
				CampaignID: "GatewayChaos-001",
				CreativeID: fmt.Sprintf("cr-%d", i),
				PageURL:    fmt.Sprintf("http://%s/page", pubs.At(i%8).Domain),
				UserAgent:  "Mozilla/5.0 Chaos",
				Nonce:      fmt.Sprintf("gwchaos-%04d", i),
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

	// Mid-run, the collector process "crashes": the server is torn down,
	// the store recovered from the WAL alone — its nonce index, rebuilt
	// from the journal, drops every leg it already holds — and a fresh
	// collector rebinds the same address, faulted the same way.
	// The outage lasts long enough that sessions commit INTO it: those
	// clients are acked purely from the spill buffer.
	time.Sleep(200 * time.Millisecond)
	_ = stopA()
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	st2, applied, err := store.RecoverWAL(walPath, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	spilledDuringOutage := g.Health().SpillPending
	if spilledDuringOutage == 0 {
		t.Error("no commit spilled during the collector outage; the zero-loss path went unexercised")
	}
	t.Logf("chaos: collector restarted mid-run with %d WAL entries recovered, %d commits spilled during outage",
		applied, spilledDuringOutage)
	wal2, err := store.OpenWAL(walPath, store.WALOptions{Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	st2.AttachWAL(wal2)
	collectortest.Serve(t, st2, faulted(trunkPlan, collectorAddr), nil)

	wg.Wait()

	clientKills, trunkKills := clientPlan.Kills.Load(), trunkPlan.Kills.Load()
	if clientKills == 0 || trunkKills == 0 {
		t.Fatalf("chaos too gentle: clientKills=%d trunkKills=%d — both legs must see faults",
			clientKills, trunkKills)
	}
	if trunkPlan.SlowLinks.Load() == 0 {
		t.Fatal("no trunk connection drew the bandwidth throttle")
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

	// Drain the gateway: every commit it acknowledged must flush to the
	// restarted collector before we audit.
	if left := g.Drain(15 * time.Second); left != 0 {
		t.Fatalf("gateway drain left %d acked commits undelivered (loss)", left)
	}
	t.Logf("chaos: %d/%d acked, clientKills=%d trunkKills=%d slowTrunks=%d replays=%v breakerOpens=%v",
		acked, fleet, clientKills, trunkKills,
		trunkPlan.SlowLinks.Load(), series(g, "adaudit_gateway_replays_total"), series(g, "adaudit_gateway_breaker_opens_total"))

	// Zero loss, exactly once, on the surviving store.
	byNonce := map[string]int{}
	st2.Visit(func(im *store.Impression) bool {
		if im.Nonce != "" {
			byNonce[im.Nonce]++
		}
		return true
	})
	for i, o := range outcomes {
		n := byNonce[o.nonce]
		if o.acked && n == 0 {
			t.Errorf("beacon %d acked but absent from the surviving store (zero-loss violated)", i)
		}
		if n > 1 {
			t.Errorf("nonce of beacon %d appears %d times (replay double-counted)", i, n)
		}
	}

	// Audit equality: the streaming engine primed from the surviving
	// store must report exactly what the batch audit computes over it.
	meta := audit.UniverseMetadata{Universe: pubs}
	inputs := auditInputsFromStore(st2)
	aud, err := audit.New(st2, meta)
	if err != nil {
		t.Fatal(err)
	}
	want, err := aud.FullAuditSerial(inputs)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := streamaudit.New(streamaudit.Config{Store: st2, Meta: meta})
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

// auditInputsFromStore synthesizes per-campaign vendor reports from the
// store itself, the way the simtest oracle builds them from its model —
// the audit then cross-checks the store against a report that agrees
// with it by construction, so batch-vs-streaming equality is the only
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
