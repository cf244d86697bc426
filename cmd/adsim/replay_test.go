package main

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"adaudit/internal/collector/collectortest"
	"adaudit/internal/store"
	"adaudit/internal/tiertest"
)

// TestGatewayReplayRerunCountsOnce: replayThroughGateway derives every
// nonce from the record it replays, so a second run of the same replay
// against the same collector resends every session's first leg, and
// the collector must drop each one. Every record stays exactly as the
// first run left it, exposure and interactions included.
func TestGatewayReplayRerunCountsOnce(t *testing.T) {
	const n = 50
	src := store.New()
	base := time.Date(2016, 3, 29, 10, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		if _, err := src.Insert(store.Impression{
			CampaignID: "Replay-001",
			CreativeID: "cr",
			Publisher:  "pub.es",
			PageURL:    fmt.Sprintf("http://pub%d.es/p", i%7),
			UserAgent:  "Mozilla/5.0 Chrome/49.0",
			UserKey:    "u",
			Timestamp:  base.Add(time.Duration(i) * time.Second),
			Exposure:   time.Duration(i%3) * time.Second,
			MouseMoves: i % 2,
			Clicks:     i % 3,
		}); err != nil {
			t.Fatal(err)
		}
	}
	dst := store.New()
	c, srv := collectortest.New(t, dst, collectortest.TCP(t, "127.0.0.1:0"), nil)
	tiertest.Serve(t, srv)

	replay := func() []store.Impression {
		if err := replayThroughGateway(srv.BeaconURL(), n, "mixed", src, testLogger()); err != nil {
			t.Fatal(err)
		}
		tiertest.WaitFor(t, "the replayed sessions to commit", func() bool { return c.SessionCount() == 0 })
		return tiertest.Stored(dst)()
	}
	first := replay()
	if len(first) != n {
		t.Fatalf("the first replay stored %d records, want %d", len(first), n)
	}
	again := replay()
	if len(again) != n {
		t.Fatalf("the rerun left %d records, want %d", len(again), n)
	}
	for i := range again {
		if !reflect.DeepEqual(again[i], first[i]) {
			t.Fatalf("the rerun changed record %d:\n  now %+v\n  was %+v", first[i].ID, again[i], first[i])
		}
	}
}
