package simtest

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaudit/internal/adnet"
	"adaudit/internal/audit"
	"adaudit/internal/beacon"
	"adaudit/internal/collector"
	"adaudit/internal/daemon"
	"adaudit/internal/gateway"
	"adaudit/internal/ipmeta"
	"adaudit/internal/memnet"
	"adaudit/internal/publisher"
	"adaudit/internal/simclock"
	"adaudit/internal/stats"
	"adaudit/internal/store"
	"adaudit/internal/streamaudit"
	"adaudit/internal/wsproto"
)

const gatewayWireTrunkToken = "simtest-trunk"

// TestSimGatewayWire extends the wire phase with the edge gateway
// tier, in one process on one in-memory network and one virtual clock:
// a beacon fleet reports through a fault-injected client leg into a
// gateway, which forwards over trunks to a collector that is killed and
// WAL-recovered mid-run on the same address. The gateway's spill buffer
// must carry every acknowledged commit across the restart, so the
// oracle's order-insensitive invariants extend to the two-hop path: an
// acked report is present exactly once after recovery (zero loss +
// nonce dedup through gateway replay), the drained store round-trips
// through the journal unchanged, and the streaming audit over the
// survivor equals the batch FullAudit.
func TestSimGatewayWire(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for _, v := range runGatewayWireSchedule(t, seed, false) {
				t.Error(v)
			}
		})
	}
}

// TestSimGatewayWireCatchesLoss is the schedule's mutant: the restarted
// collector recovers from an empty journal, so what the first one acked
// is gone. The zero-loss check must say so.
func TestSimGatewayWireCatchesLoss(t *testing.T) {
	violations := runGatewayWireSchedule(t, 1, true)
	for _, v := range violations {
		if strings.Contains(v, "zero-loss violated") {
			return
		}
	}
	t.Fatalf("the oracle passed a collector that lost its journal; violations: %q", violations)
}

// driveClock advances clk a millisecond at a time until stop is called,
// each step only while nw is idle and every other goroutine is blocked:
// virtual time never outruns bytes in flight, a dial not yet accepted,
// or work a woken goroutine has still to do.
func driveClock(clk *simclock.Virtual, nw *memnet.Network) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		stacks := make([]byte, 1<<20)
		for ; ; runtime.Gosched() {
			select {
			case <-done:
				return
			default:
			}
			if nw.Quiescent(&stacks) {
				clk.Advance(time.Millisecond)
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done); wg.Wait() }) }
}

// runGatewayWireSchedule runs seed's schedule and returns what the
// oracle found wrong with its outcome. With forgetJournal the restarted
// collector recovers from an empty journal instead of the first one's.
func runGatewayWireSchedule(t *testing.T, seed int64, forgetJournal bool) (violations []string) {
	violate := func(format string, args ...any) { violations = append(violations, fmt.Sprintf(format, args...)) }
	rng := stats.NewRNG(seed).Fork("gateway-wire")
	clk := simclock.NewVirtual(time.Time{})
	start := clk.Now()
	nw := &memnet.Network{Clock: clk, Buffer: 64 << 10}
	// Registered first, so it runs last: every shutdown below waits on
	// the virtual clock.
	t.Cleanup(driveClock(clk, nw))
	after := func(d time.Duration) { <-clk.NewTimer(d).C() }

	dir := t.TempDir()
	walPath := filepath.Join(dir, "gwwire.wal")
	wal, err := store.OpenWAL(walPath, store.WALOptions{Policy: store.SyncOS})
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	st.AttachWAL(wal)
	const collectorAddr = "collector:80"
	startCollector := func(s *store.Store) (stop func()) {
		c, err := collector.New(collector.Config{
			Store:             s,
			Anonymizer:        ipmeta.NewAnonymizer([]byte("simgw")),
			TrunkToken:        gatewayWireTrunkToken,
			KeepAliveInterval: 50 * time.Millisecond,
			Clock:             clk,
			Logger:            discardLogger(),
		})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := nw.Listen(collectorAddr)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := collector.NewServer(c, "", daemon.WithListener(ln))
		if err != nil {
			t.Fatal(err)
		}
		return serveUntilStopped(t, "collector", srv.Serve)
	}
	stopA := startCollector(st)

	g, err := gateway.New(gateway.Config{
		CollectorURL:      "ws://" + collectorAddr + "/trunk",
		TrunkToken:        gatewayWireTrunkToken,
		GatewayID:         fmt.Sprintf("gw-sim-%d", seed),
		Trunks:            2,
		Dialer:            wsproto.Dialer{NetDial: nw.Dial},
		KeepAliveInterval: 50 * time.Millisecond,
		AckTimeout:        300 * time.Millisecond,
		ReplayInterval:    50 * time.Millisecond,
		BreakerCooldown:   50 * time.Millisecond,
		Clock:             clk,
		Logger:            discardLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Client-leg chaos on every connection the gateway accepts; the
	// trunk leg sees the collector restart instead of packet-level
	// faults here (the gateway package's chaos test covers both at once).
	plan := &memnet.Faults{
		Seed:           seed,
		KillAfter:      time.Duration(40+rng.Intn(60)) * time.Millisecond,
		KillJitter:     time.Duration(60+rng.Intn(120)) * time.Millisecond,
		ResetWriteProb: 0.01 * float64(rng.Intn(4)),
	}
	gln, err := nw.ListenFaulty("gateway:80", plan)
	if err != nil {
		t.Fatal(err)
	}
	gsrv, err := gateway.NewServer(g, "", gateway.WithDrainGrace(time.Second), daemon.WithListener(gln))
	if err != nil {
		t.Fatal(err)
	}
	serveUntilStopped(t, "gateway", gsrv.Serve)

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
	var acks atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < fleet; i++ {
		exposure := time.Duration(120+rng.Intn(120)) * time.Millisecond
		wg.Add(1)
		go func(i int, exposure time.Duration) {
			defer wg.Done()
			// Stagger so sessions commit before, during and after the
			// collector outage.
			after(time.Duration(i) * 25 * time.Millisecond)
			cl := &beacon.Client{
				CollectorURL:    gsrv.BeaconURL(),
				Dialer:          wsproto.Dialer{NetDial: nw.Dial},
				Clock:           clk,
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
			err := cl.Report(context.Background(), p, exposure)
			outcomes[i] = outcome{nonce: p.Nonce, acked: err == nil}
			if err == nil {
				acks.Add(1)
			}
		}(i, exposure)
	}

	// Mid-run collector crash + WAL recovery on the same address, once
	// some beacon has been acked and its commit with it (the clock steps
	// only when nothing is left to do). While the collector is down,
	// sessions keep committing: the gateway acks them from its spill
	// buffer and replays once the restarted collector's trunk endpoint
	// is back.
	after(150 * time.Millisecond)
	for ms := 0; acks.Load() == 0 && ms < 1000; ms++ {
		after(time.Millisecond)
	}
	after(time.Millisecond)
	crashed := clk.Now()
	stopA()
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	journal := walPath
	if forgetJournal {
		journal = filepath.Join(dir, "forgotten.wal")
	}
	st2, applied, err := store.RecoverWAL(journal, nil, discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	after(200 * time.Millisecond)
	spilled := g.Health().SpillPending
	wal2, err := store.OpenWAL(journal, store.WALOptions{Policy: store.SyncOS})
	if err != nil {
		t.Fatal(err)
	}
	st2.AttachWAL(wal2)
	stopB := startCollector(st2)

	wg.Wait()

	acked := 0
	for _, o := range outcomes {
		if o.acked {
			acked++
		}
	}
	kills := plan.Kills.Load()
	t.Logf("gateway wire seed %d: %d/%d acked, clientKills=%d; collector crashed at +%v, restarted on %d WAL entries with %d spilled commits to replay",
		seed, acked, fleet, kills, crashed.Sub(start), applied, spilled)
	switch {
	case acked == 0:
		t.Fatal("no beacon ever got through; schedule too violent to test the invariant")
	case kills == 0 || spilled == 0:
		t.Fatal("schedule too gentle: it must kill a client connection and spill commits across the restart")
	}

	// The drain must flush every acked commit into the restarted
	// collector — anything left would be loss.
	if left := g.Drain(15 * time.Second); left != 0 {
		violate("gateway drain left %d acked commits undelivered (loss)", left)
	}

	// Crash the survivor too: the recovered-from-recovered store must
	// round-trip the journal unchanged.
	stopB()
	if err := wal2.Close(); err != nil {
		t.Fatal(err)
	}
	rec, _, err := store.RecoverWAL(journal, nil, discardLogger())
	if err != nil {
		t.Fatal(err)
	}

	byNonce := map[string]int{}
	rec.Visit(func(im *store.Impression) bool {
		if im.Nonce != "" {
			byNonce[im.Nonce]++
		}
		if im.Exposure < 0 {
			violate("recovered record %d has negative exposure %v", im.ID, im.Exposure)
		}
		return true
	})
	for i, o := range outcomes {
		n := byNonce[o.nonce]
		if o.acked && n == 0 {
			violate("beacon %d acked but absent after recovery (zero-loss violated)", i)
		}
		if n > 1 {
			violate("nonce of beacon %d appears %d times (no-duplication violated)", i, n)
		}
	}
	liveRecs, recRecs := dumpStore(st2), dumpStore(rec)
	if len(liveRecs) != len(recRecs) {
		return append(violations, fmt.Sprintf("recovered %d records, live store held %d", len(recRecs), len(liveRecs)))
	}
	for i := range liveRecs {
		if !impressionEqual(liveRecs[i], recRecs[i]) {
			violate("record %d diverges after recovery", liveRecs[i].ID)
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
		violate("streaming audit diverges from batch FullAudit on the surviving store")
	}
	return violations
}

// serveUntilStopped runs serve until the returned stop (also a cleanup)
// cancels it and it has shut down.
func serveUntilStopped(t *testing.T, name string, serve func(context.Context) error) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = serve(ctx)
	}()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			cancel()
			select {
			case <-done:
			case <-time.After(15 * time.Second):
				t.Errorf("%s server did not stop", name)
			}
		})
	}
	t.Cleanup(stop)
	return stop
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
