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
// round after round, on N/2 legs, each leg sent by two racers: whichever
// racer the store serves first inserts, the first of each other leg
// merges, and the second of every leg is dropped as a replay. Exactly
// one record per nonce, each leg's exposure in it once. Run under -race.
func TestConcurrentReplaysOfOneNonce(t *testing.T) {
	const rounds, racers = 200, 8
	const legs = racers / 2
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
			obs.Payload.Leg = uint8((g + 1) % legs)
		}
		obs.Payload.Leg = 0
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
	if got := c.tel.dedupHits.Load(); got != rounds*(legs-1) {
		t.Fatalf("merges = %d, want %d", got, rounds*(legs-1))
	}
	if got := c.tel.trunkDuplicates.Load(); got != rounds*(racers-legs) {
		t.Fatalf("replays dropped = %d, want %d", got, rounds*(racers-legs))
	}
	st.Visit(func(im *store.Impression) bool {
		if im.Exposure != legs*obs.Exposure || im.Clicks != legs {
			t.Fatalf("record %d holds exposure %v and %d clicks, want %d legs' worth", im.ID, im.Exposure, im.Clicks, legs)
		}
		return true
	})
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

	// The restarted collector drops both beacons' resent first legs and
	// merges their next legs, by nonce.
	c2, err := New(Config{Store: rec, Anonymizer: c.cfg.Anonymizer})
	if err != nil {
		t.Fatal(err)
	}
	for leg := uint8(0); leg < 2; leg++ {
		obs.Payload.Leg, sent[1].Leg = leg, leg
		if id, err := c2.Ingest(obs); err != nil || id != 1 {
			t.Fatalf("text leg %d after restart: id %d, err %v, want record 1", leg, id, err)
		}
		if id, err := c2.IngestBinary(sent[1].EncodeBinary(), obs.RemoteIP, obs.ConnectedAt, obs.Exposure); err != nil || id != 2 {
			t.Fatalf("binary leg %d after restart: id %d, err %v, want record 2", leg, id, err)
		}
		if rec.Len() != 2 {
			t.Fatalf("leg %d across the restart was double-counted: %d records", leg, rec.Len())
		}
		for id := int64(1); id <= 2; id++ {
			if back, _ := rec.Get(id); back.Exposure != time.Duration(1+leg)*obs.Exposure {
				t.Fatalf("after leg %d, record %d holds exposure %v, want %v", leg, id, back.Exposure, time.Duration(1+leg)*obs.Exposure)
			}
		}
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
