package main

import (
	"context"
	"fmt"
	"log/slog"
	"reflect"
	"sort"
	"time"

	"adaudit/internal/adnet"
	"adaudit/internal/audit"
	"adaudit/internal/collector"
	"adaudit/internal/ipmeta"
	"adaudit/internal/publisher"
	"adaudit/internal/router"
	"adaudit/internal/shardmerge"
	"adaudit/internal/store"
	"adaudit/internal/streamaudit"
)

// replayThroughShards boots an in-process sharded collector tier — N
// collectors, each with its own store and live streaming-audit engine,
// fronted by a multiplexing router — replays the collected dataset
// through the router's beacon endpoint, and then holds the topology to
// the merge invariant: the report built from the router's merged
// /api/live/export must deep-equal the batch FullAudit over the
// shard-order union of the shard stores. It is the `adsim -gateway`
// load path pointed at a whole sharded deployment instead of one
// collector, with the audit-equality verdict checked in-process.
func replayThroughShards(shards, limit int, wire string, seed int64, publishers int, st *store.Store, logger *slog.Logger) error {
	uni, err := publisher.NewUniverse(publisher.Config{Seed: seed, NumPublishers: publishers})
	if err != nil {
		return fmt.Errorf("rebuilding metadata universe: %w", err)
	}
	meta := audit.UniverseMetadata{Universe: uni}
	keywords := map[string][]string{}
	for _, c := range adnet.PaperCampaigns() {
		keywords[c.ID] = c.Keywords
	}
	const trunkToken = "adsim-shard"

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stores := make([]*store.Store, shards)
	trunkURLs := make([]string, shards)
	apiBases := make([]string, shards)
	var stops []func()
	defer func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}()
	for i := 0; i < shards; i++ {
		stores[i] = store.New()
		coll, err := collector.New(collector.Config{
			Store:      stores[i],
			Anonymizer: ipmeta.NewAnonymizer([]byte(fmt.Sprintf("adsim-shard-%d", i))),
			TrunkToken: trunkToken,
		})
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		eng, err := streamaudit.New(streamaudit.Config{Store: stores[i], Meta: meta})
		if err != nil {
			return fmt.Errorf("shard %d live engine: %w", i, err)
		}
		srv, err := collector.NewServer(coll, "127.0.0.1:0", collector.WithLiveAudit(eng))
		if err != nil {
			return fmt.Errorf("shard %d listen: %w", i, err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = srv.Serve(ctx)
		}()
		stops = append(stops, func() { cancel(); <-done })
		trunkURLs[i] = fmt.Sprintf("ws://%s/trunk", srv.Addr())
		apiBases[i] = fmt.Sprintf("http://%s", srv.Addr())
	}

	rt, err := router.New(router.Config{
		Shards:     trunkURLs,
		TrunkToken: trunkToken,
		Logger:     logger,
	})
	if err != nil {
		return fmt.Errorf("router: %w", err)
	}
	mergeClient := &shardmerge.Client{Shards: apiBases}
	rsrv, err := router.NewServer(rt, "127.0.0.1:0",
		router.WithDrainGrace(10*time.Second),
		router.WithLiveMerge(mergeClient, streamaudit.StaticConfig{Meta: meta}))
	if err != nil {
		return fmt.Errorf("router listen: %w", err)
	}
	rdone := make(chan struct{})
	rctx, rcancel := context.WithCancel(context.Background())
	go func() {
		defer close(rdone)
		_ = rsrv.Serve(rctx)
	}()
	defer func() { rcancel(); <-rdone }()

	deadline := time.Now().Add(10 * time.Second)
	for rt.Health().Status != "ok" {
		if time.Now().After(deadline) {
			return fmt.Errorf("router trunks never established to all %d shards", shards)
		}
		time.Sleep(10 * time.Millisecond)
	}
	logger.Info("sharded tier up", "shards", shards, "beacon", rsrv.BeaconURL())

	if err := replayThroughGateway(rsrv.BeaconURL(), limit, wire, st, logger); err != nil {
		return err
	}

	// Quiesce: every acked commit must flush out of the router's spill
	// and land on its shard before the stores are audited.
	want := st.Len()
	if limit > 0 && limit < want {
		want = limit
	}
	deadline = time.Now().Add(30 * time.Second)
	for {
		total := 0
		for _, s := range stores {
			total += s.Len()
		}
		if total == want && rt.Health().SpillPending == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sharded replay never quiesced: %d of %d impressions landed, %d commits still spilled",
				total, want, rt.Health().SpillPending)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Placement invariant: every record on exactly the shard its nonce
	// hashes to.
	for i, s := range stores {
		var perr error
		s.Visit(func(im *store.Impression) bool {
			if im.Nonce == "" {
				perr = fmt.Errorf("shard %d: impression %d stored without nonce", i, im.ID)
			} else if wantShard := shardmerge.ShardFor(im.Nonce, shards); wantShard != i {
				perr = fmt.Errorf("impression nonce %q on shard %d, hash owns shard %d", im.Nonce, i, wantShard)
			}
			return perr == nil
		})
		if perr != nil {
			return perr
		}
		logger.Info("shard placement verified", "shard", i, "impressions", s.Len())
	}

	// Merge invariant: the report over the merged shard exports (the
	// same state the router serves on /api/live/export) must deep-equal
	// the batch FullAudit over the shard-order combined store.
	combined := store.New()
	for _, s := range stores {
		var ierr error
		s.Visit(func(im *store.Impression) bool {
			_, ierr = combined.Insert(*im)
			return ierr == nil
		})
		if ierr != nil {
			return fmt.Errorf("combining shard stores: %w", ierr)
		}
	}
	inputs := shardedAuditInputs(combined)
	aud, err := audit.New(combined, meta)
	if err != nil {
		return fmt.Errorf("combined auditor: %w", err)
	}
	wantRep, err := aud.FullAuditSerial(inputs)
	if err != nil {
		return fmt.Errorf("combined batch audit: %w", err)
	}
	merged, err := mergeClient.FetchMerged(context.Background())
	if err != nil {
		return fmt.Errorf("fetching shard exports: %w", err)
	}
	eng, err := streamaudit.NewStatic(streamaudit.StaticConfig{Meta: meta}, merged)
	if err != nil {
		return fmt.Errorf("static engine over merged export: %w", err)
	}
	gotRep, err := eng.Report(inputs)
	if err != nil {
		return fmt.Errorf("merged report: %w", err)
	}
	if !reflect.DeepEqual(gotRep, wantRep) {
		return fmt.Errorf("merged %d-shard audit diverges from combined-store batch audit", shards)
	}
	logger.Info("shard-merge audit verified",
		"shards", shards, "impressions", want, "campaigns", len(wantRep.PerCampaign))
	return nil
}

// shardedAuditInputs synthesizes per-campaign vendor reports from the
// replayed store, so the merged-vs-batch comparison audits a report
// that agrees with the store by construction and audit equality is the
// only thing under test.
func shardedAuditInputs(st *store.Store) []audit.CampaignInput {
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
