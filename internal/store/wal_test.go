package store

import (
	"errors"
	"io"
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
	path, w := openTestWAL(t, WALOptions{Policy: SyncAlways})
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
	path, w := openTestWAL(t, WALOptions{Policy: SyncAlways})
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

func TestWALTornTailToleratedAndTruncated(t *testing.T) {
	path, w := openTestWAL(t, WALOptions{Policy: SyncAlways})
	s := New()
	s.AttachWAL(w)
	for i := 0; i < 5; i++ {
		if _, err := s.Insert(walImpression("c1", i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	// Simulate a crash mid-append: half an entry, no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"ins","im":{"id":6,"campaign`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rec, applied, err := RecoverWAL(path, nil, nil)
	if err != nil {
		t.Fatalf("torn tail must not fail recovery: %v", err)
	}
	if applied != 5 || rec.Len() != 5 {
		t.Fatalf("recovered %d/%d records, want 5/5", applied, rec.Len())
	}
	// The torn tail is physically gone: the journal is append-clean and
	// a second recovery sees exactly the same state.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 || raw[len(raw)-1] != '\n' {
		t.Fatalf("journal not truncated to a newline boundary (len %d)", len(raw))
	}
	rec2, applied2, err := RecoverWAL(path, nil, nil)
	if err != nil || applied2 != 5 || rec2.Len() != 5 {
		t.Fatalf("second recovery diverged: applied=%d len=%d err=%v", applied2, rec2.Len(), err)
	}
}

func TestWALCorruptMiddleFailsRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	content := `{"op":"ins","im":{"id":1,"campaign_id":"c","publisher":"p","user_key":"u","timestamp":"2016-03-29T00:00:00Z"}}
not json at all
{"op":"ins","im":{"id":2,"campaign_id":"c","publisher":"p","user_key":"u","timestamp":"2016-03-29T00:00:01Z"}}
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RecoverWAL(path, nil, nil); err == nil {
		t.Fatal("corrupt middle entry must fail recovery, not be skipped")
	}
}

func TestWALMissingFileIsEmptyRecovery(t *testing.T) {
	rec, applied, err := RecoverWAL(filepath.Join(t.TempDir(), "nope.wal"), nil, nil)
	if err != nil || applied != 0 || rec.Len() != 0 {
		t.Fatalf("missing wal: applied=%d len=%d err=%v", applied, rec.Len(), err)
	}
}

func TestSnapshotCompactResetsWAL(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "journal.wal")
	snapPath := filepath.Join(dir, "snap.jsonl")
	w, err := OpenWAL(walPath, WALOptions{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s := New()
	s.AttachWAL(w)
	for i := 0; i < 10; i++ {
		if _, err := s.Insert(walImpression("c1", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Publish a snapshot with the temp-file + rename discipline and
	// compact the journal.
	err = s.SnapshotCompact(func(write func(io.Writer) error) error {
		tmp := snapPath + ".tmp"
		f, err := os.Create(tmp)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		return os.Rename(tmp, snapPath)
	})
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(walPath); err != nil || fi.Size() != 0 {
		t.Fatalf("journal not compacted after snapshot: size=%d err=%v", fi.Size(), err)
	}

	// Post-compaction inserts journal from a clean file; recovery =
	// snapshot + journal replay reconstructs everything.
	for i := 10; i < 15; i++ {
		if _, err := s.Insert(walImpression("c2", i)); err != nil {
			t.Fatal(err)
		}
	}
	sf, err := os.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	base, err := ReadSnapshot(sf)
	sf.Close()
	if err != nil {
		t.Fatal(err)
	}
	rec, applied, err := RecoverWAL(walPath, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 5 || rec.Len() != 15 {
		t.Fatalf("recovery after compaction: applied=%d len=%d, want 5/15", applied, rec.Len())
	}
	for id := int64(1); id <= 15; id++ {
		orig, _ := s.Get(id)
		if got, _ := rec.Get(id); got != orig {
			t.Fatalf("record %d mismatch after compacted recovery", id)
		}
	}
}

// TestSnapshotCompactFailedPersistKeepsWAL: a persist failure must NOT
// truncate the journal — the snapshot never published, so the journal
// is still the only durable copy.
func TestSnapshotCompactFailedPersistKeepsWAL(t *testing.T) {
	path, w := openTestWAL(t, WALOptions{Policy: SyncAlways})
	s := New()
	s.AttachWAL(w)
	if _, err := s.Insert(walImpression("c1", 1)); err != nil {
		t.Fatal(err)
	}
	persistErr := errors.New("disk full")
	if err := s.SnapshotCompact(func(func(io.Writer) error) error { return persistErr }); !errors.Is(err, persistErr) {
		t.Fatalf("want persist error back, got %v", err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("journal truncated despite failed snapshot: size=%v err=%v", fi, err)
	}
}

func TestWALSyncPolicies(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts WALOptions
	}{
		{"os", WALOptions{Policy: SyncOS}},
		{"always", WALOptions{Policy: SyncAlways}},
		{"interval", WALOptions{Policy: SyncInterval, Interval: 5 * time.Millisecond}},
		{"group", WALOptions{Policy: SyncGroup}},
		{"group-latency", WALOptions{Policy: SyncGroup, GroupLatency: time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path, w := openTestWAL(t, tc.opts)
			s := New()
			s.AttachWAL(w)
			for i := 0; i < 8; i++ {
				if _, err := s.Insert(walImpression("c1", i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			rec, _, err := RecoverWAL(path, nil, nil)
			if err != nil || rec.Len() != 8 {
				t.Fatalf("policy %s: recovered %d records, err=%v", tc.name, rec.Len(), err)
			}
		})
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{"": SyncOS, "os": SyncOS, "always": SyncAlways, "interval": SyncInterval, "group": SyncGroup} {
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

// TestWALGroupCloseReleasesWaiters verifies Close performs a final
// group flush so a commit racing shutdown lands durable, not hung.
func TestWALGroupCloseReleasesWaiters(t *testing.T) {
	path, w := openTestWAL(t, WALOptions{Policy: SyncGroup, GroupLatency: time.Hour})
	// A huge latency parks the flusher on its timer; only Close's final
	// flush can release the waiter.
	s := New()
	s.AttachWAL(w)
	done := make(chan error, 1)
	go func() {
		_, err := s.Insert(walImpression("c1", 1))
		done <- err
	}()
	// Give the insert time to append and block in waitDurable.
	time.Sleep(20 * time.Millisecond)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("group-commit waiter not released by Close")
	}
	rec, _, err := RecoverWAL(path, nil, nil)
	if err != nil || rec.Len() != 1 {
		t.Fatalf("recovered %d records, err=%v", rec.Len(), err)
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
