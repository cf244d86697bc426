package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// fuzzLogger keeps WAL-repair warnings out of fuzz output.
func fuzzLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// walBytes journals a small store mutation history and returns the raw
// journal — a well-formed seed for the replay fuzzer.
func walBytes(t interface{ Fatal(...any) }, mutate func(*Store)) []byte {
	dir, err := os.MkdirTemp("", "walfuzz")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "seed.wal")
	w, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	s.AttachWAL(w)
	mutate(s)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func fuzzImpression(i int) Impression {
	return Impression{
		CampaignID: "fz",
		Publisher:  "pub.es",
		PageURL:    "http://pub.es/p",
		UserKey:    "uk",
		Nonce:      string(rune('a' + i)),
		Timestamp:  time.Date(2016, 3, 29, 12, i, 0, 0, time.UTC),
		Exposure:   time.Duration(i+1) * time.Second,
	}
}

// FuzzRecoverWAL feeds arbitrary bytes to the journal replayer: it must
// never panic, every record and conversion it recovers must be valid,
// and — because replay repairs a torn tail by truncating it — a second
// replay of the same file must succeed and produce the identical store.
// The seeds are journals as this build writes them, and version 1 (JSON
// lines) journals, in testdata and below, which must be refused.
func FuzzRecoverWAL(f *testing.F) {
	f.Add(walBytes(f, func(s *Store) {
		id, _ := s.Insert(fuzzImpression(0))
		s.Insert(fuzzImpression(1))
		s.Merge(id, Continuation{Exposure: time.Second, Clicks: 1})
	}))
	f.Add(walBytes(f, func(s *Store) { // both legs ops
		s.CommitLeg(fuzzImpression(0), 2, nil)
		s.CommitLeg(fuzzImpression(0), 0, nil)
	}))
	withConv := walBytes(f, func(s *Store) { // conversions among the rows
		s.InsertConversion(fuzzConversion(0))
		id, _ := s.Insert(fuzzImpression(0))
		s.InsertConversion(fuzzConversion(1))
		s.Merge(id, Continuation{Clicks: 1})
		s.InsertConversion(fuzzConversion(2))
	})
	f.Add(withConv)
	f.Add(withConv[:len(withConv)-5]) // a torn conversion
	full := walBytes(f, func(s *Store) { s.Insert(fuzzImpression(2)) })
	f.Add(full[:len(full)-3]) // torn tail
	f.Add([]byte("{\"op\":\"ins\"}\n"))
	f.Add([]byte("not json\n"))
	f.Add([]byte{})
	f.Add(full[:len(RowsHeader)-2]) // torn header
	badCRC := bytes.Clone(full)
	badCRC[len(badCRC)-1] ^= 0x10
	f.Add(badCRC)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			// Replay cost is linear in journal size; giant mutated
			// inputs only slow the smoke run without new structure.
			return
		}
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, _, err := RecoverWAL(path, nil, fuzzLogger())
		if bytes.HasPrefix(data, []byte("{")) {
			if got, _ := os.ReadFile(path); !errors.Is(err, ErrJournalV1) || !bytes.Equal(got, data) {
				t.Fatalf("a v1 journal: err %v, file kept %v; want ErrJournalV1 and the file as it was", err, bytes.Equal(got, data))
			}
		}
		if err != nil {
			return
		}
		rec.Visit(func(im *Impression) bool {
			if verr := im.Validate(); verr != nil {
				t.Fatalf("recovered invalid record %d: %v", im.ID, verr)
			}
			return true
		})
		for _, c := range rec.Conversions("") {
			if verr := c.Validate(); verr != nil {
				t.Fatalf("recovered invalid conversion %d: %v", c.ID, verr)
			}
		}
		// The replay left a repaired journal behind: replaying it again
		// must yield the same store.
		again, _, err := RecoverWAL(path, nil, fuzzLogger())
		if err != nil {
			t.Fatalf("replay of repaired journal failed: %v", err)
		}
		if again.Len() != rec.Len() || !reflect.DeepEqual(again.nonces, rec.nonces) {
			t.Fatalf("second replay recovered %d records and nonces %v, first %d and %v", again.Len(), again.nonces, rec.Len(), rec.nonces)
		}
		if a, b := rec.Conversions(""), again.Conversions(""); !reflect.DeepEqual(a, b) {
			t.Fatalf("second replay recovered conversions %v, first %v", b, a)
		}
	})
}

func fuzzConversion(i int) Conversion {
	return Conversion{
		CampaignID: "fz",
		UserKey:    "uk",
		Action:     "purchase",
		ValueCents: int64(100 * i),
		Timestamp:  time.Date(2016, 3, 29, 13, i, 0, 0, time.FixedZone("", 3600*i)),
	}
}

// FuzzReadSnapshot feeds arbitrary bytes to the snapshot reader: no
// panics, and an accepted snapshot must round-trip through
// WriteSnapshot unchanged, records and conversions. The seeds are
// snapshots of both formats, as FuzzRecoverWAL's are journals: version
// 1 must be refused.
func FuzzReadSnapshot(f *testing.F) {
	var buf bytes.Buffer
	s := New()
	s.Insert(fuzzImpression(0))
	s.Insert(fuzzImpression(1))
	if err := s.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	var legs bytes.Buffer // a row with merged legs
	withLegs := New()
	withLegs.CommitLeg(fuzzImpression(0), 0, nil)
	withLegs.CommitLeg(fuzzImpression(0), 3, nil)
	if err := withLegs.WriteSnapshot(&legs); err != nil {
		f.Fatal(err)
	}
	f.Add(legs.Bytes())
	var convs bytes.Buffer // rows, then conversions
	withConv := New()
	withConv.Insert(fuzzImpression(0))
	withConv.InsertConversion(fuzzConversion(0))
	withConv.InsertConversion(fuzzConversion(1))
	if err := withConv.WriteSnapshot(&convs); err != nil {
		f.Fatal(err)
	}
	f.Add(convs.Bytes())
	f.Add(buf.Bytes()[:buf.Len()-4]) // truncated final record
	f.Add([]byte("{}"))
	f.Add([]byte("null"))
	f.Add([]byte{})
	f.Add([]byte(RowsHeader))
	var v1 bytes.Buffer
	s.Visit(func(im *Impression) bool {
		b, _ := json.Marshal(im)
		v1.Write(append(b, '\n'))
		return true
	})
	f.Add(v1.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := ReadSnapshot(bytes.NewReader(data))
		if bytes.HasPrefix(data, []byte("{")) && !errors.Is(err, ErrJournalV1) {
			t.Fatalf("a v1 snapshot: err %v, want ErrJournalV1", err)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := rec.WriteSnapshot(&out); err != nil {
			t.Fatalf("accepted snapshot fails to re-write: %v", err)
		}
		again, err := ReadSnapshot(&out)
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if again.Len() != rec.Len() || !reflect.DeepEqual(again.nonces, rec.nonces) {
			t.Fatalf("round trip drift: %d vs %d records, nonces %v vs %v", again.Len(), rec.Len(), again.nonces, rec.nonces)
		}
		a, b := dumpAll(rec), dumpAll(again)
		for i := range a {
			aj, _ := json.Marshal(a[i])
			bj, _ := json.Marshal(b[i])
			if !bytes.Equal(aj, bj) {
				t.Fatalf("record %d drift: %s vs %s", i, aj, bj)
			}
		}
		if a, b := rec.Conversions(""), again.Conversions(""); !reflect.DeepEqual(a, b) {
			t.Fatalf("conversions drift: %v vs %v", a, b)
		}
	})
}

func dumpAll(s *Store) []Impression {
	var out []Impression
	s.Visit(func(im *Impression) bool {
		out = append(out, *im)
		return true
	})
	return out
}
