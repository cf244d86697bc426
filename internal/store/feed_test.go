package store

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func feedTestImpression(campaign, pub, user string, ts time.Time) Impression {
	return Impression{
		CampaignID: campaign,
		Publisher:  pub,
		PageURL:    "https://" + pub + "/p",
		UserKey:    user,
		Timestamp:  ts,
		Exposure:   2 * time.Second,
	}
}

// drainFeed reads every buffered event without blocking.
func drainFeed(sub *FeedSub) []FeedEvent {
	var evs []FeedEvent
	for {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				return evs
			}
			evs = append(evs, ev)
		default:
			return evs
		}
	}
}

func TestFeedDeliversOrderedDeltas(t *testing.T) {
	s := New()
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)

	// One record before the subscription: it must arrive via the
	// snapshot prime, not the delta stream.
	if _, err := s.Insert(feedTestImpression("c1", "pub-a.example", "u1", base)); err != nil {
		t.Fatal(err)
	}

	var primed []Impression
	var primedConvs []Conversion
	sub := s.Subscribe(16,
		func(im *Impression) { primed = append(primed, *im) },
		func(c *Conversion) { primedConvs = append(primedConvs, *c) })
	defer sub.Close()

	if len(primed) != 1 || primed[0].ID != 1 {
		t.Fatalf("prime saw %d impressions, want the 1 pre-existing record", len(primed))
	}
	if len(primedConvs) != 0 {
		t.Fatalf("prime saw %d conversions, want 0", len(primedConvs))
	}
	// Sequence numbers are only assigned once the feed exists: the
	// pre-subscribe insert predates it, so the snapshot cut is seq 0.
	if got := sub.StartSeq(); got != s.FeedSeq() {
		t.Fatalf("StartSeq = %d, want FeedSeq %d at attach time", got, s.FeedSeq())
	}

	id2, err := s.Insert(feedTestImpression("c1", "pub-b.example", "u2", base.Add(time.Minute)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Merge(id2, Continuation{Exposure: 3 * time.Second, Clicks: 1, VisibilityMeasured: true, MaxVisibleFraction: 0.8}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InsertConversion(Conversion{CampaignID: "c1", UserKey: "u2", Action: "purchase", Timestamp: base.Add(2 * time.Minute)}); err != nil {
		t.Fatal(err)
	}

	evs := drainFeed(sub)
	if len(evs) != 3 {
		t.Fatalf("got %d deltas, want 3: %+v", len(evs), evs)
	}
	for i, ev := range evs {
		if want := sub.StartSeq() + int64(i) + 1; ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d (contiguous)", i, ev.Seq, want)
		}
	}
	if evs[0].Kind != FeedInsert || evs[0].Im.ID != id2 {
		t.Fatalf("delta 0 = %+v, want insert of record %d", evs[0], id2)
	}
	if evs[1].Kind != FeedMerge {
		t.Fatalf("delta 1 kind = %v, want merge", evs[1].Kind)
	}
	if evs[1].Prev.Exposure != 2*time.Second || evs[1].Im.Exposure != 5*time.Second {
		t.Fatalf("merge delta exposure prev=%v new=%v, want 2s -> 5s", evs[1].Prev.Exposure, evs[1].Im.Exposure)
	}
	if evs[1].Prev.VisibilityMeasured || !evs[1].Im.VisibilityMeasured {
		t.Fatalf("merge delta visibility prev=%v new=%v, want false -> true", evs[1].Prev.VisibilityMeasured, evs[1].Im.VisibilityMeasured)
	}
	if evs[2].Kind != FeedConversion || evs[2].Conv.Action != "purchase" {
		t.Fatalf("delta 2 = %+v, want the conversion", evs[2])
	}
}

func TestFeedSlowConsumerDropped(t *testing.T) {
	s := New()
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	sub := s.Subscribe(2, nil, nil)

	for i := 0; i < 5; i++ {
		im := feedTestImpression("c1", fmt.Sprintf("pub-%d.example", i), "u1", base.Add(time.Duration(i)*time.Second))
		if _, err := s.Insert(im); err != nil {
			t.Fatal(err)
		}
	}

	// Buffer of 2: the third publish overflows and evicts the
	// subscriber. The two buffered events stay readable, then the
	// channel closes with Dropped reporting true.
	evs := drainFeed(sub)
	if len(evs) != 2 {
		t.Fatalf("read %d buffered events, want 2", len(evs))
	}
	if _, ok := <-sub.Events(); ok {
		t.Fatal("events channel still open after overflow")
	}
	if !sub.Dropped() {
		t.Fatal("Dropped() = false after eviction")
	}
	if subs, _, drops := s.feedStats(); subs != 0 || drops != 1 {
		t.Fatalf("feedStats after drop: subs=%d drops=%d, want 0 and 1", subs, drops)
	}

	// The store keeps accepting writes and a fresh subscription
	// resyncs from the full snapshot.
	var primed int
	sub2 := s.Subscribe(16, func(*Impression) { primed++ }, nil)
	defer sub2.Close()
	if primed != 5 {
		t.Fatalf("resync primed %d records, want 5", primed)
	}
	if sub2.Dropped() {
		t.Fatal("fresh subscriber marked dropped")
	}
}

func TestFeedCloseIsIdempotentAndDistinctFromDrop(t *testing.T) {
	s := New()
	sub := s.Subscribe(4, nil, nil)
	sub.Close()
	sub.Close() // must not panic or double-close
	if sub.Dropped() {
		t.Fatal("plain Close must not mark the subscriber dropped")
	}
	if _, ok := <-sub.Events(); ok {
		t.Fatal("events channel open after Close")
	}
	// Publishing after the close must not panic on the closed channel.
	if _, err := s.Insert(feedTestImpression("c1", "pub.example", "u1", time.Now())); err != nil {
		t.Fatal(err)
	}
}

// TestFeedConsistentAttachUnderLoad hammers Subscribe against
// concurrent writers: for every subscriber, snapshot + deltas must
// cover each record exactly once (no gap, no duplicate at the cut).
func TestFeedConsistentAttachUnderLoad(t *testing.T) {
	s := New()
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	const writers, perWriter = 4, 200

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				im := feedTestImpression("c1", fmt.Sprintf("pub-%d.example", w), fmt.Sprintf("u-%d-%d", w, i), base.Add(time.Duration(i)*time.Millisecond))
				if _, err := s.Insert(im); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	results := make(chan map[int64]int, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := map[int64]int{}
			sub := s.Subscribe(writers*perWriter+1, func(im *Impression) { seen[im.ID]++ }, nil)
			defer sub.Close()
			// Wait for the writers from inside the subscriber: drain
			// until every record is accounted for.
			deadline := time.After(5 * time.Second)
			for len(seen) < writers*perWriter {
				select {
				case ev, ok := <-sub.Events():
					if !ok {
						t.Error("subscriber dropped despite adequate buffer")
						return
					}
					if ev.Kind == FeedInsert {
						seen[ev.Im.ID]++
					}
				case <-deadline:
					t.Errorf("timed out with %d/%d records", len(seen), writers*perWriter)
					return
				}
			}
			results <- seen
		}()
	}
	wg.Wait()
	close(results)
	for seen := range results {
		for id, n := range seen {
			if n != 1 {
				t.Fatalf("record %d observed %d times by one subscriber, want exactly once", id, n)
			}
		}
	}
}

// TestFeedMergeSlotIsCampaignRank: a merge event's Slot is the record's
// index in its campaign's VisitCampaign order — what lets the streaming
// engine find the record without an index of its own. The campaigns are
// interleaved, the log runs past two chunks, and the slot holds on the
// live store (Merge and CommitLeg), as the journal replays over a
// snapshot, and on the store that recovery returns.
func TestFeedMergeSlotIsCampaignRank(t *testing.T) {
	dir := t.TempDir()
	snapPath, walPath := filepath.Join(dir, "imps.snap"), filepath.Join(dir, "j.wal")
	w, err := OpenWAL(walPath, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	live := New()
	live.AttachWAL(w)
	const n, buffer = 2*recChunk + 100, 4096
	liveSub := live.Subscribe(buffer, nil, nil)
	campaigns := []string{"c1", "c2", "c3"}
	rng := rand.New(rand.NewSource(1))
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		im := feedTestImpression(campaigns[rng.Intn(len(campaigns))], fmt.Sprintf("pub-%d.example", i%7),
			fmt.Sprintf("u%d", i%50), base.Add(time.Duration(i)*time.Second))
		im.Nonce = fmt.Sprintf("n%d", i)
		id, err := live.Insert(im)
		if err != nil {
			t.Fatal(err)
		}
		switch rng.Intn(8) {
		case 0:
			err = live.Merge(1+rng.Int63n(id), Continuation{Exposure: time.Second, Clicks: 1})
		case 1:
			_, _, err = live.CommitLeg(im, 1, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		if i == recChunk+50 {
			if err := live.SnapshotCompact(snapPath); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	check := func(name string, st *Store, sub *FeedSub) {
		t.Helper()
		rank := map[int64]int{}
		for _, c := range campaigns {
			i := 0
			st.VisitCampaign(c, func(im *Impression) bool { rank[im.ID] = i; i++; return true })
		}
		merges, pastChunk := 0, 0
		for _, ev := range drainFeed(sub) {
			if ev.Kind != FeedMerge {
				continue
			}
			merges++
			if ev.Im.ID > recChunk {
				pastChunk++
			}
			if ev.Slot != rank[ev.Im.ID] {
				t.Fatalf("%s: merge of record %d (campaign %s) has slot %d, want its campaign rank %d",
					name, ev.Im.ID, ev.Im.CampaignID, ev.Slot, rank[ev.Im.ID])
			}
		}
		if sub.Dropped() || merges < 100 || pastChunk == 0 {
			t.Fatalf("%s: %d merges, %d past the first chunk, dropped %v: the check saw too little",
				name, merges, pastChunk, sub.Dropped())
		}
	}
	check("live", live, liveSub)

	f, err := os.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	replaySub := snap.Subscribe(buffer, nil, nil)
	back, _, err := RecoverWAL(walPath, snap, fuzzLogger())
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != n {
		t.Fatalf("recovered %d records, want %d", back.Len(), n)
	}
	check("journal replay", back, replaySub)

	sub := back.Subscribe(buffer, nil, nil)
	for id := int64(1); id <= n; id += 7 {
		if err := back.Merge(id, Continuation{Exposure: time.Second}); err != nil {
			t.Fatal(err)
		}
	}
	check("recovered", back, sub)
}
