package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// readSnapshotFile loads the snapshot published at path.
func readSnapshotFile(t *testing.T, path string) *Store {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := ReadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// requireSameRecords fails unless got holds want's records, ID for ID.
func requireSameRecords(t *testing.T, got, want *Store) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%d records, want %d", got.Len(), want.Len())
	}
	for id := int64(1); id <= int64(want.Len()); id++ {
		w, _ := want.Get(id)
		if g, _ := got.Get(id); g != w {
			t.Fatalf("record %d:\n got %+v\nwant %+v", id, g, w)
		}
	}
}

func requireNoTemp(t *testing.T, path string) {
	t.Helper()
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

func TestSnapshotCompactResetsWAL(t *testing.T) {
	walPath, w := openTestWAL(t, WALOptions{Policy: SyncGroup})
	snapPath := filepath.Join(t.TempDir(), "snap.jsonl")
	s := New()
	s.AttachWAL(w)
	for i := 0; i < 10; i++ {
		if _, err := s.Insert(walImpression("c1", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SnapshotCompact(snapPath); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(walPath); err != nil || string(got) != RowsHeader {
		t.Fatalf("journal not compacted to its header after snapshot: %d bytes, err=%v", len(got), err)
	}

	// Post-compaction inserts journal from a clean file; recovery =
	// snapshot + journal replay reconstructs everything.
	for i := 10; i < 15; i++ {
		if _, err := s.Insert(walImpression("c2", i)); err != nil {
			t.Fatal(err)
		}
	}
	rec, applied, err := RecoverWAL(walPath, readSnapshotFile(t, snapPath), nil)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 5 {
		t.Fatalf("recovery after compaction applied %d entries, want 5", applied)
	}
	requireSameRecords(t, rec, s)
}

// TestSnapshotCompactPublishesAtomically: each publish leaves a
// complete snapshot at path and no temp file, and a second publish
// replaces the first whole.
func TestSnapshotCompactPublishesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "imps.jsonl")
	s := New()
	for i := 0; i < 2; i++ {
		if _, err := s.Insert(walImpression("c1", i)); err != nil {
			t.Fatal(err)
		}
		if err := s.SnapshotCompact(path); err != nil {
			t.Fatal(err)
		}
		requireNoTemp(t, path)
		requireSameRecords(t, readSnapshotFile(t, path), s)
	}
}

// TestSnapshotCompactFailedPersistKeepsWAL: a failed publish must NOT
// truncate the journal — the snapshot never published, so the journal
// is still the only durable copy — and must leave no temp file.
func TestSnapshotCompactFailedPersistKeepsWAL(t *testing.T) {
	for name, path := range map[string]func(dir string) string{
		"missing-dir": func(dir string) string { return filepath.Join(dir, "nonexistent", "x.jsonl") },
		"path-is-dir": func(dir string) string { return dir },
	} {
		t.Run(name, func(t *testing.T) {
			walPath, w := openTestWAL(t, WALOptions{Policy: SyncGroup})
			s := New()
			s.AttachWAL(w)
			if _, err := s.Insert(walImpression("c1", 1)); err != nil {
				t.Fatal(err)
			}
			before, err := os.Stat(walPath)
			if err != nil {
				t.Fatal(err)
			}
			snap := path(t.TempDir())
			if err := s.SnapshotCompact(snap); err == nil {
				t.Fatalf("publish to %s succeeded", snap)
			}
			if fi, err := os.Stat(walPath); err != nil || fi.Size() != before.Size() {
				t.Fatalf("journal changed by a failed publish: size %v -> %v, err=%v", before.Size(), fi, err)
			}
			requireNoTemp(t, snap)
		})
	}
}

// TestSnapshotCompactConcurrentCallers races publishes to one path
// against inserts (run it under -race): every publish succeeds, and
// the last snapshot plus the journal recover the live store record for
// record.
func TestSnapshotCompactConcurrentCallers(t *testing.T) {
	walPath, w := openTestWAL(t, WALOptions{Policy: SyncGroup})
	snapPath := filepath.Join(t.TempDir(), "snap.jsonl")
	s := New()
	s.AttachWAL(w)
	const snappers, inserters, per = 4, 4, 25
	errs := make(chan error, snappers*per+inserters*per)
	var wg sync.WaitGroup
	for g := 0; g < snappers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				errs <- s.SnapshotCompact(snapPath)
			}
		}()
	}
	for g := 0; g < inserters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_, err := s.Insert(walImpression(fmt.Sprintf("c%d", g), i))
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	requireNoTemp(t, snapPath)
	rec, _, err := RecoverWAL(walPath, readSnapshotFile(t, snapPath), nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRecords(t, rec, s)
}
