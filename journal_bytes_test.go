package adaudit

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"adaudit/internal/store"
)

// TestPaperDatasetJournalAndSnapshotBytes re-commits the seed-1 paper
// dataset (129,584 records, plus a merge on every seventh) into a
// journaled store and holds both files the store writes to the bytes
// encoding/json produces for the same rows — what the journal and
// snapshot writers were before the append encoder (internal/store
// rowjson.go) — then recovers the journal and compares every record.
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
	st := store.New()
	st.AttachWAL(wal)

	// The journal's line formats, spelled out: an insert wraps the row,
	// a merge carries the absolute post-merge values.
	type mergeLine struct {
		Op     string  `json:"op"`
		ID     int64   `json:"id,omitempty"`
		Exp    int64   `json:"exp,omitempty"`
		Moves  int     `json:"moves,omitempty"`
		Clicks int     `json:"clicks,omitempty"`
		Vis    bool    `json:"vis,omitempty"`
		MaxVis float64 `json:"maxvis,omitempty"`
	}
	var wantJournal bytes.Buffer
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	run.ws.Store.Visit(func(im *store.Impression) bool {
		id, err := st.Insert(*im)
		if err != nil || id != im.ID {
			t.Fatalf("re-insert of record %d: id %d, err %v", im.ID, id, err)
		}
		wantJournal.WriteString(`{"op":"ins","im":`)
		wantJournal.Write(marshal(im))
		wantJournal.WriteString("}\n")
		if id%7 == 0 {
			cont := store.Continuation{Exposure: time.Duration(id) * time.Millisecond, Clicks: int(id % 2), MaxVisibleFraction: float64(id%11) / 10}
			if err := st.Merge(id-3, cont); err != nil {
				t.Fatal(err)
			}
			m, _ := st.Get(id - 3)
			wantJournal.Write(marshal(mergeLine{"mrg", m.ID, int64(m.Exposure), m.MouseMoves, m.Clicks, m.VisibilityMeasured, m.MaxVisibleFraction}))
			wantJournal.WriteByte('\n')
		}
		return true
	})
	gotJournal, err := os.ReadFile(path) // before Close: every append is one write(2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJournal, wantJournal.Bytes()) {
		t.Fatalf("journal (%d bytes) differs from encoding/json's (%d bytes) at byte %d", len(gotJournal), wantJournal.Len(), firstDiff(gotJournal, wantJournal.Bytes()))
	}

	var gotSnap, wantSnap bytes.Buffer
	if err := st.WriteSnapshot(&gotSnap); err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(&wantSnap)
	st.Visit(func(im *store.Impression) bool {
		if err := enc.Encode(im); err != nil {
			t.Fatal(err)
		}
		return true
	})
	if !bytes.Equal(gotSnap.Bytes(), wantSnap.Bytes()) {
		t.Fatalf("snapshot (%d bytes) differs from json.Encoder's (%d bytes) at byte %d", gotSnap.Len(), wantSnap.Len(), firstDiff(gotSnap.Bytes(), wantSnap.Bytes()))
	}

	rec, _, err := store.RecoverWAL(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() != st.Len() {
		t.Fatalf("recovered %d of %d records", rec.Len(), st.Len())
	}
	for id := int64(1); id <= int64(st.Len()); id++ {
		a, _ := st.Get(id)
		b, _ := rec.Get(id)
		if !a.Timestamp.Equal(b.Timestamp) {
			t.Fatalf("record %d recovered at %v, committed at %v", id, b.Timestamp, a.Timestamp)
		}
		if b.Timestamp = a.Timestamp; a != b {
			t.Fatalf("record %d recovered as %+v, committed as %+v", id, b, a)
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
