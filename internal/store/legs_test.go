package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestCommitLegCountsEachLegOnce: whatever order the legs of a nonce
// arrive in, the first makes the record, every other merges into it
// once, and a leg that arrives again changes nothing. A nonce-less
// record is always a new one, and a leg past the mask is refused.
func TestCommitLegCountsEachLegOnce(t *testing.T) {
	s := New()
	im := fuzzImpression(0) // 1 s of exposure
	im.Clicks = 1
	var want Impression
	for _, c := range []struct {
		leg     uint8
		outcome LegOutcome
		legs    int // counted so far
	}{
		{2, LegInserted, 1}, // the first connection's commit was lost
		{0, LegMerged, 2},
		{2, LegReplayed, 2},
		{1, LegMerged, 3},
		{0, LegReplayed, 3},
		{31, LegMerged, 4},
	} {
		id, got, err := s.CommitLeg(im, c.leg, nil)
		if err != nil || id != 1 || got != c.outcome {
			t.Fatalf("leg %d: record %d, outcome %d, err %v; want record 1, outcome %d", c.leg, id, got, err, c.outcome)
		}
		want, _ = s.Get(1)
		if want.Exposure != time.Duration(c.legs)*time.Second || want.Clicks != c.legs || s.Len() != 1 {
			t.Fatalf("after leg %d: %d records, exposure %v, %d clicks; want %d legs' worth", c.leg, s.Len(), want.Exposure, want.Clicks, c.legs)
		}
	}
	if got := s.nonces[im.Nonce]; got != (nonceEntry{pos: 0, legs: 1<<0 | 1<<1 | 1<<2 | 1<<31}) {
		t.Fatalf("nonce index holds %+v", got)
	}
	if _, _, err := s.CommitLeg(im, maxLegs, nil); err == nil {
		t.Fatal("a leg past the mask was committed")
	}
	if back, _ := s.Get(1); back != want {
		t.Fatalf("the refused leg changed the record: %+v", back)
	}
	im.Nonce = ""
	for want := int64(2); want <= 3; want++ {
		if id, got, err := s.CommitLeg(im, 0, nil); err != nil || id != want || got != LegInserted {
			t.Fatalf("nonce-less commit: record %d, outcome %d, err %v; want a new record %d", id, got, err, want)
		}
	}
}

// TestLegZeroCommitsWriteTodaysBytes: a history of first legs journals
// and snapshots exactly what the same history through Insert does —
// the bytes a journal had before legs existed.
func TestLegZeroCommitsWriteTodaysBytes(t *testing.T) {
	write := func(commit func(*Store, Impression) error) (journal, snapshot []byte) {
		path := filepath.Join(t.TempDir(), "j.wal")
		w, err := OpenWAL(path, WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		s := New()
		s.AttachWAL(w)
		for i := 0; i < 6; i++ {
			im := fuzzImpression(i)
			if i == 5 {
				im.Nonce = ""
			}
			if err := commit(s, im); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Merge(2, Continuation{Exposure: time.Second, Clicks: 1}); err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := s.WriteSnapshot(&snap); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		journal, err = os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return journal, snap.Bytes()
	}
	insertJournal, insertSnap := write(func(s *Store, im Impression) error {
		_, err := s.Insert(im)
		return err
	})
	legJournal, legSnap := write(func(s *Store, im Impression) error {
		_, _, err := s.CommitLeg(im, 0, nil)
		return err
	})
	if !bytes.Equal(legJournal, insertJournal) || !bytes.Equal(legSnap, insertSnap) {
		t.Fatalf("first legs wrote other bytes than inserts:\n journal %x\n    want %x\nsnapshot %x\n    want %x",
			legJournal, insertJournal, legSnap, insertSnap)
	}
}

// TestRecoveryRebuildsTheNonceIndex: a store recovered from its journal,
// or read from its snapshot, holds the records and the merged legs the
// live store does, and goes on counting each leg once.
func TestRecoveryRebuildsTheNonceIndex(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	w, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	live := New()
	live.AttachWAL(w)
	legFixture(t, live)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := live.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	fromJournal, _, err := RecoverWAL(path, nil, fuzzLogger())
	if err != nil {
		t.Fatal(err)
	}
	fromSnap, err := ReadSnapshot(&snap)
	if err != nil {
		t.Fatal(err)
	}
	for name, back := range map[string]*Store{"journal": fromJournal, "snapshot": fromSnap} {
		if !reflect.DeepEqual(back.nonces, live.nonces) {
			t.Fatalf("%s: nonce index %+v, live %+v", name, back.nonces, live.nonces)
		}
		if !reflect.DeepEqual(dumpAll(back), dumpAll(live)) {
			t.Fatalf("%s: records differ from the live store's", name)
		}
		im, _ := back.Get(1)
		if id, got, err := back.CommitLeg(im, 2, nil); err != nil || id != 1 || got != LegReplayed {
			t.Fatalf("%s: a counted leg after recovery: record %d, outcome %d, err %v", name, id, got, err)
		}
		if id, got, err := back.CommitLeg(im, 1, nil); err != nil || id != 1 || got != LegMerged {
			t.Fatalf("%s: a new leg after recovery: record %d, outcome %d, err %v", name, id, got, err)
		}
	}
}

// TestFirstRecordOfANonceOwnsIt: a journal written before the store
// kept legs may hold one nonce on two records (the collector's bounded
// cache had forgotten it). Recovery keeps both rows as written, and the
// nonce belongs to the first, as it does when Insert repeats a nonce
// live.
func TestFirstRecordOfANonceOwnsIt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	w, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	live := New()
	live.AttachWAL(w)
	im := fuzzImpression(0)
	for i := 0; i < 2; i++ {
		if _, err := live.Insert(im); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	live.AttachWAL(nil)
	rec, _, err := RecoverWAL(path, nil, fuzzLogger())
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Store{"live": live, "recovered": rec} {
		if s.Len() != 2 {
			t.Fatalf("%s: %d records, want both rows", name, s.Len())
		}
		if id, got, err := s.CommitLeg(im, 1, nil); err != nil || id != 1 || got != LegMerged {
			t.Fatalf("%s: leg 1: record %d, outcome %d, err %v; want a merge into record 1", name, id, got, err)
		}
		if second, _ := s.Get(2); second.Exposure != im.Exposure {
			t.Fatalf("%s: the second row changed: %+v", name, second)
		}
	}
}

// TestReplayRacingAnUnsyncedCommitGetsItsError: a replay is dropped
// against a record whose group fsync has not landed, and must not be
// acknowledged before it does. Here it never lands — every fsync fails
// and Close releases the waiters — so the first commit and its replay
// both get an error, and neither success.
func TestReplayRacingAnUnsyncedCommitGetsItsError(t *testing.T) {
	_, w := openTestWAL(t, WALOptions{Policy: SyncGroup})
	s := New()
	s.AttachWAL(w)
	// Stop the flusher, so nothing but Close syncs the journal.
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done

	type result struct {
		outcome LegOutcome
		err     error
	}
	im := walImpression("c", 1)
	commit := func(out chan<- result) {
		_, outcome, err := s.CommitLeg(im, 0, nil)
		out <- result{outcome, err}
	}
	first, replay := make(chan result, 1), make(chan result, 1)
	go commit(first)
	appended := func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.seq > 0
	}
	for deadline := time.Now().Add(5 * time.Second); !appended(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the first commit never appended")
		}
	}
	go commit(replay)
	select {
	case r := <-replay:
		t.Fatalf("the replay returned %+v before the entry it repeats was durable", r)
	case r := <-first:
		t.Fatalf("the first commit returned %+v before its entry was durable", r)
	case <-time.After(20 * time.Millisecond):
	}
	w.f.Close() // every fsync from here fails: Close's own too
	_ = w.Close()
	for name, c := range map[string]struct {
		ch      chan result
		outcome LegOutcome
	}{"first commit": {first, LegInserted}, "replay": {replay, LegReplayed}} {
		select {
		case r := <-c.ch:
			if r.err == nil || r.outcome != c.outcome {
				t.Fatalf("%s: outcome %d, err %v; want outcome %d and an error, its entry never reached the disk", name, r.outcome, r.err, c.outcome)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s still blocked 5 s after Close", name)
		}
	}
}
