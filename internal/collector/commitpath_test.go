package collector

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/store"
)

// TestConcurrentReplaysOfOneNonce races N ingests of the same nonce,
// round after round: whichever claims first inserts, the others wait on
// the channel the first of them made and then merge. Exactly one record
// per nonce, every connection's exposure in it. Run under -race.
func TestConcurrentReplaysOfOneNonce(t *testing.T) {
	const rounds, racers = 200, 8
	c, st := testCollector(t)
	obs := testObservation(t, c)
	for r := 0; r < rounds; r++ {
		obs.Payload.Nonce = fmt.Sprintf("raced-%d", r)
		start := make(chan struct{})
		ids := make([]int64, racers)
		var wg sync.WaitGroup
		for g := 0; g < racers; g++ {
			wg.Add(1)
			go func(g int, obs Observation) {
				defer wg.Done()
				<-start
				id, err := c.Ingest(obs)
				if err != nil {
					t.Errorf("round %d racer %d: %v", r, g, err)
				}
				ids[g] = id
			}(g, obs)
		}
		close(start)
		wg.Wait()
		for g, id := range ids {
			if id != int64(r+1) {
				t.Fatalf("round %d racer %d committed to record %d, want %d", r, g, id, r+1)
			}
		}
	}
	if st.Len() != rounds {
		t.Fatalf("store holds %d records for %d nonces", st.Len(), rounds)
	}
	if got := c.tel.dedupHits.Load(); got != rounds*(racers-1) {
		t.Fatalf("merges = %d, want %d", got, rounds*(racers-1))
	}
	st.Visit(func(im *store.Impression) bool {
		if im.Exposure != racers*obs.Exposure || im.Clicks != racers {
			t.Fatalf("record %d holds exposure %v and %d clicks, want %d connections' worth", im.ID, im.Exposure, im.Clicks, racers)
		}
		return true
	})
	if n := len(c.nonceInflight); n != 0 {
		t.Fatalf("%d claims left in flight", n)
	}
}

// TestNonceClaimMakesItsChannelForAWaiter pins the claim handshake's
// three answers, that the ordinary claim holds no channel, and that a
// released claim wakes its waiters into claiming for themselves.
func TestNonceClaimMakesItsChannelForAWaiter(t *testing.T) {
	c, _ := testCollector(t)
	if _, ok, wait := c.nonceClaim("n"); ok || wait != nil {
		t.Fatalf("first claim: ok=%v wait=%v, want the claim", ok, wait)
	}
	if ch, inflight := c.nonceInflight["n"]; !inflight || ch != nil {
		t.Fatalf("an unraced claim holds channel %v (in flight %v), want nil", ch, inflight)
	}
	const waiters = 4
	woke := make(chan bool, waiters)
	var ready sync.WaitGroup
	for i := 0; i < waiters; i++ {
		_, ok, wait := c.nonceClaim("n")
		if ok || wait == nil {
			t.Fatalf("claim against one in flight: ok=%v wait=%v, want a channel", ok, wait)
		}
		ready.Add(1)
		go func() {
			ready.Done()
			<-wait
			_, ok, wait := c.nonceClaim("n")
			woke <- !ok && wait == nil // this waiter now holds the claim
		}()
	}
	ready.Wait()
	c.nonceRelease("n")
	claimed := 0
	for i := 0; i < waiters; i++ {
		select {
		case mine := <-woke:
			if mine {
				claimed++
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("released claim woke %d of %d waiters", i, waiters)
		}
	}
	if claimed != 1 {
		t.Fatalf("%d woken waiters took the released claim, want 1", claimed)
	}
	c.nonceRecord("n", 7)
	if id, ok, _ := c.nonceClaim("n"); !ok || id != 7 {
		t.Fatalf("claim after record: id=%d ok=%v", id, ok)
	}
	// Releasing or recording with nothing in flight is a no-op.
	c.nonceRelease("never-claimed")
}

// TestInvalidUTF8SurvivesRecovery: a record ingested with invalid UTF-8
// must hold the strings every reader sees (the JSON surfaces write
// U+FFFD) from the start, and recovery must rebuild exactly the record
// acknowledged, user key and nonce included — else a beacon retrying
// across the restart double-counts.
func TestInvalidUTF8SurvivesRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	wal, err := store.OpenWAL(path, store.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	c, st := testCollector(t)
	st.AttachWAL(wal)

	obs := testObservation(t, c)
	p := obs.Payload
	p.UserAgent, p.CreativeID = "Mozilla \xff\xfe", "cr\xc0"
	p.PageURL = "http://www.ciencia123.es/art\xedculo"
	var sent []beacon.Payload
	for _, nonce := range []string{"text-\xff", "binary-\xfe"} {
		p.Nonce = nonce
		sent = append(sent, p)
	}
	viaText, err := beacon.Decode(sent[0].Encode())
	if err != nil {
		t.Fatal(err)
	}
	if viaText.UserAgent != p.UserAgent {
		t.Fatalf("the text wire no longer carries raw bytes (%q): this test needs another way in", viaText.UserAgent)
	}
	obs.Payload = viaText
	if _, err := c.Ingest(obs); err != nil {
		t.Fatal(err)
	}
	if _, err := c.IngestBinary(sent[1].EncodeBinary(), obs.RemoteIP, obs.ConnectedAt, obs.Exposure); err != nil {
		t.Fatal(err)
	}

	// Kill: the journal is read as the crash left it, never closed.
	rec, applied, err := store.RecoverWAL(path, nil, nil)
	if err != nil || applied != 2 {
		t.Fatalf("recovery applied %d entries, err %v", applied, err)
	}
	for id := int64(1); id <= 2; id++ {
		acked, _ := st.Get(id)
		back, _ := rec.Get(id)
		if !reflect.DeepEqual(acked, back) {
			t.Fatalf("record %d changed across recovery:\n acked %+v\n  back %+v", id, acked, back)
		}
		if want := UserKey(acked.IPPseudonym, acked.UserAgent); acked.UserKey != want {
			t.Fatalf("user key %q is not that of the stored agent (%q)", acked.UserKey, want)
		}
	}
	a, b := mustGet(t, st, 1), mustGet(t, st, 2)
	if a.UserAgent != b.UserAgent || a.UserKey != b.UserKey || a.Nonce == b.Nonce {
		t.Fatalf("the wires disagree on the same bytes:\n text %+v\n  bin %+v", a, b)
	}

	// The restarted collector merges both beacons' retries by nonce.
	c2, err := New(Config{Store: rec, Anonymizer: c.cfg.Anonymizer})
	if err != nil {
		t.Fatal(err)
	}
	if id, err := c2.Ingest(obs); err != nil || id != 1 {
		t.Fatalf("text retry after restart: id %d, err %v, want a merge into 1", id, err)
	}
	if id, err := c2.IngestBinary(sent[1].EncodeBinary(), obs.RemoteIP, obs.ConnectedAt, obs.Exposure); err != nil || id != 2 {
		t.Fatalf("binary retry after restart: id %d, err %v, want a merge into 2", id, err)
	}
	if rec.Len() != 2 {
		t.Fatalf("retries across the restart were double-counted: %d records", rec.Len())
	}
}

func mustGet(t *testing.T, st *store.Store, id int64) store.Impression {
	t.Helper()
	im, ok := st.Get(id)
	if !ok {
		t.Fatalf("record %d missing", id)
	}
	return im
}
