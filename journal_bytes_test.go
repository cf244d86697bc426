package adaudit

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
	"time"

	"adaudit/internal/store"
)

// The SHA-256 of the two files TestPaperDatasetJournalAndSnapshotBytes
// has the store write. A change to either is a change of the journal
// and snapshot format (internal/store rowcodec.go), which a new format
// version must come with.
const (
	paperJournalSHA256  = "b6cdcffbd3e24fc712715a94507379eb2517adc0fc614dcdcde255784b46ab07"
	paperSnapshotSHA256 = "d9a51437c6492bcf32eff5d2528be1ea8bec69d05f038f7c6f448c3ff812ac9f"
)

// TestPaperDatasetJournalAndSnapshotBytes re-commits the seed-1 paper
// dataset (129,584 records, plus a merge on every seventh) into a
// journaled store, pins the bytes of the journal and of the snapshot
// the store then writes, and reads both back record for record.
func TestPaperDatasetJournalAndSnapshotBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("re-commits the full paper dataset")
	}
	run, _ := paperRun(t)
	path := filepath.Join(t.TempDir(), "paper.wal")
	wal, err := store.OpenWAL(path, store.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	st := store.New()
	st.AttachWAL(wal)
	run.ws.Store.Visit(func(im *store.Impression) bool {
		id, err := st.Insert(*im)
		if err != nil || id != im.ID {
			t.Fatalf("re-insert of record %d: id %d, err %v", im.ID, id, err)
		}
		if id%7 == 0 {
			cont := store.Continuation{Exposure: time.Duration(id) * time.Millisecond, Clicks: int(id % 2), MaxVisibleFraction: float64(id%11) / 10}
			if err := st.Merge(id-3, cont); err != nil {
				t.Fatal(err)
			}
		}
		return true
	})
	journal, err := os.ReadFile(path) // before Close: every append is one write(2)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := st.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name string
		data []byte
		want string
	}{{"journal", journal, paperJournalSHA256}, {"snapshot", snap.Bytes(), paperSnapshotSHA256}} {
		sum := sha256.Sum256(f.data)
		if got := hex.EncodeToString(sum[:]); got != f.want {
			t.Errorf("%s (%d bytes) has SHA-256 %s, want %s", f.name, len(f.data), got, f.want)
		}
	}

	rec, _, err := store.RecoverWAL(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fromSnap, err := store.ReadSnapshot(&snap)
	if err != nil {
		t.Fatal(err)
	}
	for name, back := range map[string]*store.Store{"journal": rec, "snapshot": fromSnap} {
		if back.Len() != st.Len() {
			t.Fatalf("%s: read back %d of %d records", name, back.Len(), st.Len())
		}
		for id := int64(1); id <= int64(st.Len()); id++ {
			a, _ := st.Get(id)
			b, _ := back.Get(id)
			if !a.Timestamp.Equal(b.Timestamp) {
				t.Fatalf("%s: record %d read back at %v, committed at %v", name, id, b.Timestamp, a.Timestamp)
			}
			if b.Timestamp = a.Timestamp; a != b {
				t.Fatalf("%s: record %d read back as %+v, committed as %+v", name, id, b, a)
			}
		}
	}
}
