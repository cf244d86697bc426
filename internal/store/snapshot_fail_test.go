package store

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// failingWriter accepts limit bytes and then fails every write — an
// in-memory stand-in for a disk filling up mid-snapshot.
type failingWriter struct {
	limit int
	buf   bytes.Buffer
}

var errWriterDead = errors.New("disk full")

func (f *failingWriter) Write(b []byte) (int, error) {
	if f.buf.Len()+len(b) > f.limit {
		room := f.limit - f.buf.Len()
		if room > 0 {
			f.buf.Write(b[:room])
		}
		return room, errWriterDead
	}
	return f.buf.Write(b)
}

func TestWriteSnapshotPropagatesWriterFailure(t *testing.T) {
	s := New()
	for i := 0; i < 50; i++ {
		if _, err := s.Insert(walImpression("c1", i)); err != nil {
			t.Fatal(err)
		}
	}
	fw := &failingWriter{limit: 300}
	if err := s.WriteSnapshot(fw); !errors.Is(err, errWriterDead) {
		t.Fatalf("WriteSnapshot over a failing writer returned %v, want the writer's error", err)
	}
	// The failure is the writer's problem, not the store's: it still
	// serves reads and snapshots cleanly afterwards.
	if s.Len() != 50 {
		t.Fatalf("store mutated by failed snapshot: %d records", s.Len())
	}
	var ok bytes.Buffer
	if err := s.WriteSnapshot(&ok); err != nil {
		t.Fatalf("snapshot after failed snapshot: %v", err)
	}
	got, err := ReadSnapshot(&ok)
	if err != nil || got.Len() != 50 {
		t.Fatalf("retry round-trip: len=%d err=%v", got.Len(), err)
	}
}

func TestReadSnapshotToleratesTruncatedFinalRecord(t *testing.T) {
	s := New()
	for i := 0; i < 3; i++ {
		if _, err := s.Insert(walImpression("c1", i)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	ends := entryEnds(t, full)
	badCRC := bytes.Clone(full)
	badCRC[len(badCRC)-1] ^= 0x01

	// Chopped mid-way through the last record — a writer that died
	// between write(2) calls — or its last record damaged.
	for name, torn := range map[string][]byte{
		"v2 half a record":     full[:ends[1]+(ends[2]-ends[1])/2],
		"v2 half a frame":      full[:ends[1]+frameLen-1],
		"v2 bad last checksum": badCRC,
	} {
		got, err := ReadSnapshot(bytes.NewReader(torn))
		if err != nil {
			t.Fatalf("%s: a torn final record must not fail the load: %v", name, err)
		}
		if got.Len() != 2 {
			t.Fatalf("%s: kept %d records, want the 2 intact ones", name, got.Len())
		}
		for id := int64(1); id <= 2; id++ {
			want, _ := s.Get(id)
			if g, ok := got.Get(id); !ok || g != want {
				t.Fatalf("%s: record %d mismatch after truncated load", name, id)
			}
		}
	}
	// Damage that is NOT a torn tail still fails.
	flipped := bytes.Clone(full)
	flipped[ends[0]+frameLen+3] ^= 0x01
	merge, err := appendFramed(bytes.Clone(full[:ends[0]]), &walEntry{Op: opMerge, ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string][]byte{
		"v2 flipped byte": flipped,
		"v2 not a row":    append(merge, full[ends[0]:]...),
	} {
		if _, err := ReadSnapshot(bytes.NewReader(corrupt)); err == nil || !strings.Contains(err.Error(), "record 2") {
			t.Fatalf("%s: mid-file damage: err %v, want a failure naming record 2", name, err)
		}
	}
}

func TestWriteCSVPropagatesWriterFailure(t *testing.T) {
	s := New()
	for i := 0; i < 50; i++ {
		if _, err := s.Insert(walImpression("c1", i)); err != nil {
			t.Fatal(err)
		}
	}
	fw := &failingWriter{limit: 200}
	if err := s.WriteCSV(fw); !errors.Is(err, errWriterDead) {
		t.Fatalf("WriteCSV over a failing writer returned %v, want the writer's error", err)
	}
}
