package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func walImpression(campaign string, n int) Impression {
	return Impression{
		CampaignID: campaign,
		CreativeID: "cr",
		Publisher:  "pub.es",
		PageURL:    "http://pub.es/p",
		UserKey:    "u" + strings.Repeat("x", n%3),
		Timestamp:  time.Date(2016, 3, 29, 0, 0, n, 0, time.UTC),
		Exposure:   time.Duration(n) * time.Second,
		Nonce:      "nonce-" + campaign + "-" + strings.Repeat("a", n%5),
	}
}

func openTestWAL(t *testing.T, opts WALOptions) (string, *WAL) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.wal")
	w, err := OpenWAL(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return path, w
}

func TestWALRecoversEveryInsert(t *testing.T) {
	path, w := openTestWAL(t, WALOptions{Policy: SyncGroup})
	s := New()
	s.AttachWAL(w)
	for i := 0; i < 25; i++ {
		im := walImpression("c1", i)
		im.Nonce = ""
		if _, err := s.Insert(im); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: no snapshot ever written, recover from the journal alone.
	rec, applied, err := RecoverWAL(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 25 || rec.Len() != 25 {
		t.Fatalf("recovered %d entries into %d records, want 25/25", applied, rec.Len())
	}
	for id := int64(1); id <= 25; id++ {
		orig, _ := s.Get(id)
		got, ok := rec.Get(id)
		if !ok || got != orig {
			t.Fatalf("record %d mismatch after recovery:\n got %+v\nwant %+v", id, got, orig)
		}
	}
	// Index rebuilt.
	if got := rec.CampaignLen("c1"); got != 25 {
		t.Fatalf("campaign index lost records: %d", got)
	}
}

func TestWALMergeReplayIsIdempotent(t *testing.T) {
	path, w := openTestWAL(t, WALOptions{Policy: SyncGroup})
	s := New()
	s.AttachWAL(w)
	id, err := s.Insert(walImpression("c1", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Merge(id, Continuation{
		Exposure:           2 * time.Second,
		MouseMoves:         3,
		Clicks:             1,
		VisibilityMeasured: true,
		MaxVisibleFraction: 0.8,
	}); err != nil {
		t.Fatal(err)
	}
	want, _ := s.Get(id)

	// Recover into an empty base...
	rec, _, err := RecoverWAL(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := rec.Get(id); got != want {
		t.Fatalf("merge lost in recovery:\n got %+v\nwant %+v", got, want)
	}

	// ...and into a base that ALREADY contains the fully merged state
	// (crash between snapshot rename and journal reset): replay must
	// not double-apply.
	base := New()
	if _, err := base.Insert(want); err != nil {
		t.Fatal(err)
	}
	rec2, _, err := RecoverWAL(path, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := rec2.Get(id); got != want {
		t.Fatalf("replay over snapshot double-applied:\n got %+v\nwant %+v", got, want)
	}
	if rec2.Len() != 1 {
		t.Fatalf("replay over snapshot duplicated records: %d", rec2.Len())
	}
}

// TestWALTornTailToleratedAndTruncated: a journal that ends in part of
// an entry, or in an entry whose body fails its checksum, lost that
// entry to a crash mid-append. Recovery keeps everything before it and
// truncates it away. A v1 (JSON lines) journal torn the same way is
// refused whole and not truncated: this build reads no v1.
func TestWALTornTailToleratedAndTruncated(t *testing.T) {
	path, w := openTestWAL(t, WALOptions{Policy: SyncGroup})
	s := New()
	s.AttachWAL(w)
	for i := 0; i < 6; i++ {
		if _, err := s.Insert(walImpression("c1", i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := entryEnds(t, full)
	last := ends[len(ends)-2] // where the sixth entry starts
	badCRC := bytes.Clone(full)
	badCRC[len(badCRC)-1] ^= 0x01
	for name, data := range map[string][]byte{
		"half an entry":      full[:last+(len(full)-last)/2],
		"half a frame":       full[:last+frameLen/2],
		"bad final checksum": badCRC,
		"v1 half a line": []byte(`{"op":"ins","im":{"id":1,"campaign_id":"c","publisher":"p","user_key":"u","timestamp":"2016-03-29T00:00:00Z"}}` +
			"\n" + `{"op":"ins","im":{"id":2,"campaign`),
	} {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if name == "v1 half a line" {
				_, _, err := RecoverWAL(path, nil, fuzzLogger())
				if raw, _ := os.ReadFile(path); !errors.Is(err, ErrJournalV1) || !bytes.Equal(raw, data) {
					t.Fatalf("torn v1 journal: err %v, journal left at %d of %d bytes; want ErrJournalV1, untouched", err, len(raw), len(data))
				}
				return
			}
			const want = 5
			rec, applied, err := RecoverWAL(path, nil, fuzzLogger())
			if err != nil {
				t.Fatalf("torn tail must not fail recovery: %v", err)
			}
			if applied != want || rec.Len() != want {
				t.Fatalf("recovered %d/%d records, want %d/%d", applied, rec.Len(), want, want)
			}
			// The torn tail is physically gone: the journal is
			// append-clean and a second recovery sees the same state.
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, full[:last]) {
				t.Fatalf("journal truncated to %d bytes, want the %d before the torn entry", len(raw), last)
			}
			rec2, applied2, err := RecoverWAL(path, nil, fuzzLogger())
			if err != nil || applied2 != want || rec2.Len() != want {
				t.Fatalf("second recovery diverged: applied=%d len=%d err=%v", applied2, rec2.Len(), err)
			}
		})
	}
}

// TestWALCorruptMiddleFailsRecovery: damage that is not a torn final
// entry — any byte flipped in any entry but the last, frame header or
// body — fails recovery naming the entry, and leaves the journal as it
// was.
func TestWALCorruptMiddleFailsRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	full, _, _ := fixtureJournal(t)
	ends := entryEnds(t, full)
	start := len(RowsHeader)
	for k, end := range ends[:len(ends)-1] {
		for at := start; at < end; at++ {
			data := bytes.Clone(full)
			data[at] ^= 0x5a
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err := RecoverWAL(path, nil, fuzzLogger())
			if name := fmt.Sprintf("entry %d ", k+1); err == nil || !strings.Contains(err.Error(), name) {
				t.Fatalf("byte %d of entry %d flipped: err %v, want a failure naming %q", at-start, k+1, err, name)
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, data) {
				t.Fatalf("byte %d of entry %d flipped: a failed recovery changed the journal", at-start, k+1)
			}
		}
		start = end
	}
}

// TestWALCrashAtEveryByte cuts a journal of journalFixture's inserts
// and merges, and legFixture's leg commits, at every byte offset, inside
// the header too: recovery keeps exactly the entries wholly inside the
// cut — records and merged legs — truncates the rest (a cut header to
// nothing), and a second recovery over its result applies nothing and
// changes nothing.
func TestWALCrashAtEveryByte(t *testing.T) {
	full, states, legs := fixtureJournal(t)
	ends := entryEnds(t, full)
	if len(ends) != len(states) {
		t.Fatalf("%d entries for %d mutations", len(ends), len(states))
	}
	path := filepath.Join(t.TempDir(), "cut.wal")
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		whole, keep := 0, 0
		if cut >= len(RowsHeader) {
			keep = len(RowsHeader)
		}
		for whole < len(ends) && ends[whole] <= cut {
			keep = ends[whole]
			whole++
		}
		rec, applied, err := RecoverWAL(path, nil, fuzzLogger())
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if applied != whole {
			t.Fatalf("cut at %d: applied %d entries, %d are whole", cut, applied, whole)
		}
		requireRecords(t, rec, statesAfter(states, whole))
		requireLegs(t, rec, legsAfter(states, legs, whole))
		after, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(after, full[:keep]) {
			t.Fatalf("cut at %d: journal left at %d bytes, want %d (err %v)", cut, len(after), keep, err)
		}
		again, applied, err := RecoverWAL(path, rec, fuzzLogger())
		if err != nil || applied != 0 || again.Len() != rec.Len() {
			t.Fatalf("cut at %d: second recovery applied %d (err %v)", cut, applied, err)
		}
		if twice, _ := os.ReadFile(path); !bytes.Equal(twice, after) {
			t.Fatalf("cut at %d: second recovery changed the journal", cut)
		}
	}
}

// TestOpenWALRefusesAJournalWithoutHeader: OpenWAL appends only to a
// version 2 journal. It writes the header to an empty file and refuses
// a v1 file by name and any other headerless file; RecoverWAL and
// ReadSnapshot refuse the same files the same way, and none of the
// three changes the file.
func TestOpenWALRefusesAJournalWithoutHeader(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"v1":      `{"op":"ins","im":{"id":1}}` + "\n",
		"garbage": "ADR\x01 not a journal",
	} {
		path := filepath.Join(dir, name+".wal")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		for reader, read := range map[string]func() error{
			"OpenWAL": func() error { _, err := OpenWAL(path, WALOptions{}); return err },
			"RecoverWAL": func() error {
				_, _, err := RecoverWAL(path, nil, fuzzLogger())
				return err
			},
			"ReadSnapshot": func() error { _, err := ReadSnapshot(strings.NewReader(content)); return err },
		} {
			err := read()
			if err == nil || !strings.Contains(err.Error(), "v1") || errors.Is(err, ErrJournalV1) != (name == "v1") {
				t.Fatalf("%s: %s err %v, want a refusal naming v1", name, reader, err)
			}
			if got, _ := os.ReadFile(path); string(got) != content {
				t.Fatalf("%s: %s changed the refused file", name, reader)
			}
		}
	}
	path := filepath.Join(dir, "new.wal")
	for i := 0; i < 2; i++ { // creating it, then reopening it
		w, err := OpenWAL(path, WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
		if got, _ := os.ReadFile(path); string(got) != RowsHeader {
			t.Fatalf("open %d: journal holds %q, want the header alone", i+1, got)
		}
	}
}

func TestWALMissingFileIsEmptyRecovery(t *testing.T) {
	rec, applied, err := RecoverWAL(filepath.Join(t.TempDir(), "nope.wal"), nil, nil)
	if err != nil || applied != 0 || rec.Len() != 0 {
		t.Fatalf("missing wal: applied=%d len=%d err=%v", applied, rec.Len(), err)
	}
}

// TestWALSyncPolicies ranges over every -wal-sync value a deployment
// may carry: the two policies journal every insert, and the removed
// ones are refused by a message naming the two.
func TestWALSyncPolicies(t *testing.T) {
	for _, name := range []string{"os", "group", "always", "interval"} {
		t.Run(name, func(t *testing.T) {
			policy, err := ParseSyncPolicy(name)
			if name == "always" || name == "interval" {
				if err == nil || !strings.Contains(err.Error(), "want os or group") {
					t.Fatalf("removed policy %q: err %v, want a refusal naming os and group", name, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			path, w := openTestWAL(t, WALOptions{Policy: policy})
			s := New()
			s.AttachWAL(w)
			for i := 0; i < 8; i++ {
				if _, err := s.Insert(walImpression("c1", i)); err != nil {
					t.Fatal(err)
				}
			}
			// Recover before Close: every append is one write(2), so the
			// page cache already holds every entry under either policy.
			rec, _, err := RecoverWAL(path, nil, nil)
			if err != nil || rec.Len() != 8 {
				t.Fatalf("policy %s: recovered %d records, err=%v", name, rec.Len(), err)
			}
		})
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{"": SyncOS, "os": SyncOS, "group": SyncGroup} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

// TestWALGroupCommitConcurrent hammers a group-commit WAL from many
// goroutines and then recovers: every acknowledged insert must be in
// the journal, and the committers must all have been released by
// shared fsyncs rather than hanging.
func TestWALGroupCommitConcurrent(t *testing.T) {
	path, w := openTestWAL(t, WALOptions{Policy: SyncGroup})
	s := New()
	s.AttachWAL(w)
	const workers, per = 8, 20
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		go func(g int) {
			for i := 0; i < per; i++ {
				im := walImpression("c"+string(rune('a'+g)), i)
				im.Nonce = ""
				if _, err := s.Insert(im); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < workers; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// Acks imply durability under the group policy: recover WITHOUT
	// closing or syncing first — everything acknowledged must be there.
	rec, applied, err := RecoverWAL(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if applied != workers*per || rec.Len() != workers*per {
		t.Fatalf("recovered %d entries into %d records, want %d", applied, rec.Len(), workers*per)
	}
	w.mu.Lock()
	seq, synced := w.seq, w.syncedSeq
	w.mu.Unlock()
	if seq != workers*per || synced != seq {
		t.Fatalf("seq=%d syncedSeq=%d, want both %d", seq, synced, workers*per)
	}
}

// TestWALGroupCloseReleasesWaiters races group-commit inserts against
// Close: no committer may hang, and every insert that was acknowledged
// must be in the journal. Close is driven in its two steps so the race
// it exists for is certain to happen: the flusher stops first (its
// final flush covers what was appended so far), commits keep appending
// behind it, and only Close's own fsync and wake-up can release them.
func TestWALGroupCloseReleasesWaiters(t *testing.T) {
	path, w := openTestWAL(t, WALOptions{Policy: SyncGroup})
	s := New()
	s.AttachWAL(w)
	const workers, per = 4, 50
	type result struct {
		id  int64
		err error
	}
	results := make(chan result, workers*per)
	for g := 0; g < workers; g++ {
		go func(g int) {
			for i := 0; i < per; i++ {
				id, err := s.Insert(walImpression("c"+string(rune('a'+g)), i))
				results <- result{id, err}
			}
		}(g)
	}
	var acked []int64
	var timeout <-chan time.Time
	for n := 0; n < workers*per; n++ {
		if n == workers { // commits are flowing
			w.stopOnce.Do(func() { close(w.stop) })
			<-w.done
			for deadline := time.Now().Add(5 * time.Second); ; {
				w.mu.Lock()
				behind := w.seq > w.syncedSeq
				w.mu.Unlock()
				if behind {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("no commit appended after the flusher stopped")
				}
				time.Sleep(100 * time.Microsecond)
			}
			// Not needed to pass: it lets the stragglers park in their
			// wait, the case only Close's own wake-up can release (a
			// straggler that arrives after Close gets an error instead).
			time.Sleep(10 * time.Millisecond)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			timeout = time.After(5 * time.Second)
		}
		select {
		case r := <-results:
			if r.err == nil {
				acked = append(acked, r.id)
			}
		case <-timeout:
			t.Fatalf("%d of %d inserts still blocked 5s after Close", workers*per-n, workers*per)
		}
	}
	rec, _, err := RecoverWAL(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range acked {
		want, _ := s.Get(id)
		if got, ok := rec.Get(id); !ok || got != want {
			t.Fatalf("acknowledged insert %d lost across Close: recovered %+v, want %+v", id, got, want)
		}
	}
}

// TestWALGroupDirtyDuration checks the sync-lag health signal covers
// the group policy: dirty while a commit is pending, clean after the
// flush catches up.
func TestWALGroupDirtyDuration(t *testing.T) {
	_, w := openTestWAL(t, WALOptions{Policy: SyncGroup})
	s := New()
	s.AttachWAL(w)
	if _, err := s.Insert(walImpression("c1", 1)); err != nil {
		t.Fatal(err)
	}
	// The insert only returns once its entry is flushed, so the journal
	// must already be clean again.
	if d := w.DirtyDuration(); d != 0 {
		t.Fatalf("dirty for %v after acknowledged group commit", d)
	}
}
