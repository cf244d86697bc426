package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"adaudit/internal/audit"
	"adaudit/internal/shardmerge"
	"adaudit/internal/store"
	"adaudit/internal/streamaudit"
)

// checkStores holds the tier to its delivery contract: every acked
// nonce stored exactly once, on the shard its hash names, with no
// change-feed drop and no engine resync along the way.
func checkStores(d *dataset, shards []*shard, acked []int) error {
	seen := make(map[string]int, len(acked))
	for i, sh := range shards {
		var perr error
		sh.st.Visit(func(im *store.Impression) bool {
			seen[im.Nonce]++
			if want := shardmerge.ShardFor(im.Nonce, len(shards)); want != i {
				perr = fmt.Errorf("nonce %q stored on shard %d, hash owns shard %d", im.Nonce, i, want)
			}
			return perr == nil
		})
		if perr != nil {
			return perr
		}
		if n := sh.eng.Resyncs(); n != 0 {
			return fmt.Errorf("shard %d: live engine resynced %d times", i, n)
		}
		if n := sh.st.FeedDrops(); n != 0 {
			return fmt.Errorf("shard %d: change feed dropped %d subscribers", i, n)
		}
	}
	for _, i := range acked {
		if n := seen[d.nonce(i)]; n != 1 {
			return fmt.Errorf("acked nonce %q stored %d times, want exactly once", d.nonce(i), n)
		}
	}
	return nil
}

// unionStore concatenates stores, records then conversions, in shard
// order — the order shardmerge.Merge unions exports in, which is what
// makes the merged report comparable bit for bit. One store is its own
// union.
func unionStore(stores []*store.Store) (*store.Store, error) {
	if len(stores) == 1 {
		return stores[0], nil
	}
	u := store.New()
	for _, st := range stores {
		var err error
		st.Visit(func(im *store.Impression) bool {
			_, err = u.Insert(*im)
			return err == nil
		})
		if err != nil {
			return nil, fmt.Errorf("combining shard stores: %w", err)
		}
		for _, c := range st.Conversions("") {
			if _, err := u.InsertConversion(c); err != nil {
				return nil, fmt.Errorf("combining shard conversions: %w", err)
			}
		}
	}
	return u, nil
}

// checkReports holds the audit to its exactness bar: the live report
// (one shard) or the report over the fetched-and-merged shard exports
// (several) must deep-equal the batch FullAudit over the union store.
// fetch is how long the HTTP export fetch + merge took (0 on one shard).
func checkReports(d *dataset, t *topology) (fetch time.Duration, err error) {
	stores := make([]*store.Store, len(t.shards))
	for i, sh := range t.shards {
		stores[i] = sh.st
	}
	u, err := unionStore(stores)
	if err != nil {
		return 0, err
	}
	aud, err := audit.New(u, d.meta)
	if err != nil {
		return 0, err
	}
	want, err := aud.FullAudit(d.inputs)
	if err != nil {
		return 0, fmt.Errorf("batch audit over the union store: %w", err)
	}
	eng := t.shards[0].eng
	if t.merge != nil {
		t0 := time.Now()
		merged, err := t.merge.FetchMerged(context.Background())
		if err != nil {
			return 0, fmt.Errorf("fetching shard exports: %w", err)
		}
		fetch = time.Since(t0)
		if eng, err = streamaudit.NewStatic(streamaudit.StaticConfig{Meta: d.meta}, merged); err != nil {
			return 0, err
		}
	}
	got, err := eng.Report(d.inputs)
	if err != nil {
		return 0, fmt.Errorf("live report: %w", err)
	}
	if !reflect.DeepEqual(got, want) {
		return 0, fmt.Errorf("%s: live report over %d shard(s) diverges from the batch audit of the same stores", t.kind, len(t.shards))
	}
	return fetch, nil
}
