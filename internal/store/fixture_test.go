package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// hostileStrings are the inputs on which a hand-written JSON string
// encoder goes wrong first: every escape class of encoding/json, and
// the ways a byte sequence can fail to be UTF-8.
var hostileStrings = []string{
	"", "plain", "http://pub.es/p?a=1&b=<2>", `quote " and \ backslash`,
	"\b\f\n\r\t", "\x00\x01\x1f\x7f", "line\u2028sep\u2029para", "é世界🙂",
	"\xff\xfe", "trunc\xe2\x80", "surrogate\xed\xa0\x80", "range\xf4\x90\x80\x80",
	"overlong\xc0\x80", "\ufffd already", "mix<\xff>&\u2028\"",
}

// hostileFloats and hostileTimes are the values whose JSON form is a
// special case, or that have none.
var (
	hostileFloats = []float64{
		0, math.Copysign(0, -1), 0.5, 1, 0.1, 1e-6, 9.99e-7, 1e-7, 1.5e-9, 1e21, 9.9e20,
		1e100, -3.25e-12, math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	hostileTimes = []time.Time{
		{},
		time.Date(2016, 3, 29, 12, 0, 0, 0, time.UTC),
		time.Date(2016, 3, 29, 12, 0, 0, 123456789, time.UTC),
		time.Date(2016, 3, 29, 12, 0, 0, 120000000, time.FixedZone("", 3600)),
		time.Date(2016, 3, 29, 12, 0, 0, 0, time.FixedZone("", -(5*3600+30*60))),
		time.Date(2016, 3, 29, 12, 0, 0, 0, time.FixedZone("", 90)),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2016, 1, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600)),
		time.Date(2016, 1, 1, 0, 0, 0, 0, time.FixedZone("", -100*3600)),
	}
)

// journalFixture drives a fixed history of inserts and merges — every
// hostile string, every finite hostile float, several zones — through
// s, whose journal is then the format's reference document. It returns
// the record each mutation left behind, in order: entry k of the
// journal put states[k] in the store.
func journalFixture(t *testing.T, s *Store) (states []Impression) {
	t.Helper()
	record := func(id int64) {
		im, _ := s.Get(id)
		states = append(states, im)
	}
	for i, str := range hostileStrings {
		im := fuzzImpression(i % 20)
		im.CreativeID, im.UserAgent, im.PageURL, im.Nonce = str, str, "http://pub.es/"+str, str
		im.ISP, im.Country, im.DataCenter = "ES-isp-"+str, "ES", "not-data-center"
		im.MaxVisibleFraction = hostileFloats[i%15]
		im.VisibilityMeasured = i%2 == 0
		im.Timestamp = hostileTimes[1+i%6]
		im.MouseMoves, im.Clicks = i, i%3
		id, err := s.Insert(im)
		if err != nil {
			t.Fatal(err)
		}
		record(id)
		if i%2 == 1 {
			cont := Continuation{
				Exposure: time.Duration(i) * 1500 * time.Millisecond, MouseMoves: i % 4, Clicks: i % 2,
				VisibilityMeasured: i%3 == 0, MaxVisibleFraction: hostileFloats[(i+7)%15],
			}
			if err := s.Merge(id-int64(i%2), cont); err != nil {
				t.Fatal(err)
			}
			record(id - int64(i%2))
		}
	}
	return states
}

// legFixture drives leg commits through s after journalFixture's
// history, so that the journal holds both legs ops: an insert at leg 0
// and a merge of leg 2 into it, an insert at leg 1 and a merge of leg 0
// into it, a replay (which journals nothing), a nonce-less record (an
// insert, whatever its leg) and a Merge of a record inserted at leg 3. No record is merged twice, which keeps a second
// replay of the journal over its own result a no-op. It returns the
// record each journaled commit left and the merged legs of its nonce
// then.
func legFixture(t *testing.T, s *Store) (states []Impression, legs []uint32) {
	t.Helper()
	record := func(id int64) {
		im, _ := s.Get(id)
		states = append(states, im)
		legs = append(legs, s.nonces[im.Nonce].legs)
	}
	for _, c := range []struct {
		nonce string
		leg   uint8
		want  LegOutcome
	}{
		{"leg-a", 0, LegInserted}, {"leg-a", 2, LegMerged}, {"leg-b", 1, LegInserted},
		{"leg-b", 0, LegMerged}, {"leg-a", 2, LegReplayed}, {"", 2, LegInserted}, {"leg-c", 3, LegInserted},
	} {
		im := fuzzImpression(int(c.leg))
		im.Nonce, im.Clicks = c.nonce, 1
		id, got, err := s.CommitLeg(im, c.leg, nil)
		if err != nil || got != c.want {
			t.Fatalf("leg %d of %s: outcome %d, err %v, want %d", c.leg, c.nonce, got, err, c.want)
		}
		if got != LegReplayed {
			record(id)
		}
	}
	id := int64(s.Len())
	if err := s.Merge(id, Continuation{Exposure: time.Second, MouseMoves: 2}); err != nil {
		t.Fatal(err)
	}
	record(id)
	return states, legs
}

// fixtureJournal returns the version 2 journal of journalFixture's
// history followed by legFixture's, the states its entries leave and
// the merged legs of each state's nonce then (0 for a record that owns
// none).
func fixtureJournal(t *testing.T) ([]byte, []Impression, []uint32) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fixture.wal")
	w, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	s.AttachWAL(w)
	states := journalFixture(t, s)
	var legs []uint32
	for _, im := range states { // Insert and Merge leave leg 0's mask
		if e, ok := s.nonces[im.Nonce]; ok && int64(e.pos)+1 == im.ID {
			legs = append(legs, e.legs)
		} else {
			legs = append(legs, 0)
		}
	}
	more, moreLegs := legFixture(t, s)
	states, legs = append(states, more...), append(legs, moreLegs...)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ops, start := map[byte]bool{}, len(RowsHeader)
	for _, end := range entryEnds(t, data) {
		ops[data[start+frameLen]], start = true, end
	}
	if len(ops) != 4 {
		t.Fatalf("the fixture journal holds ops %v, want all four", ops)
	}
	return data, states, legs
}

// entryEnds walks the frames of a version 2 file by their lengths and
// returns the offset just past each entry.
func entryEnds(t *testing.T, data []byte) []int {
	t.Helper()
	if !bytes.HasPrefix(data, []byte(RowsHeader)) {
		t.Fatalf("no %q header: %q", RowsHeader, data[:min(len(data), 8)])
	}
	var ends []int
	for at := len(RowsHeader); at < len(data); {
		at += frameLen + int(binary.LittleEndian.Uint32(data[at:]))
		ends = append(ends, at)
	}
	return ends
}

// statesAfter is the store the first k of a history's states leave, by
// ID.
func statesAfter(states []Impression, k int) map[int64]Impression {
	out := map[int64]Impression{}
	for _, im := range states[:k] {
		out[im.ID] = im
	}
	return out
}

// legsAfter is the nonce index the first k of a history's states
// leave: each owned nonce's last merged legs.
func legsAfter(states []Impression, legs []uint32, k int) map[string]uint32 {
	out := map[string]uint32{}
	for i, im := range states[:k] {
		if legs[i] != 0 {
			out[im.Nonce] = legs[i]
		}
	}
	return out
}

// requireLegs fails unless s's nonce index holds exactly want's merged
// legs.
func requireLegs(t *testing.T, s *Store, want map[string]uint32) {
	t.Helper()
	if len(s.nonces) != len(want) {
		t.Fatalf("%d nonces indexed, want %d", len(s.nonces), len(want))
	}
	for nonce, legs := range want {
		if got := s.nonces[nonce].legs; got != legs {
			t.Fatalf("nonce %q: legs %b, want %b", nonce, got, legs)
		}
	}
}

// sameRecord compares two records field for field, the timestamp by
// its instant and its zone offset (a location is a pointer).
func sameRecord(a, b Impression) bool {
	_, ao := a.Timestamp.Zone()
	_, bo := b.Timestamp.Zone()
	if !a.Timestamp.Equal(b.Timestamp) || ao != bo {
		return false
	}
	a.Timestamp, b.Timestamp = time.Time{}, time.Time{}
	return a == b
}

// requireRecords fails unless s holds exactly want's records.
func requireRecords(t *testing.T, s *Store, want map[int64]Impression) {
	t.Helper()
	if s.Len() != len(want) {
		t.Fatalf("%d records, want %d", s.Len(), len(want))
	}
	for id, w := range want {
		if got, _ := s.Get(id); !sameRecord(got, w) {
			t.Fatalf("record %d:\n got %+v\nwant %+v", id, got, w)
		}
	}
}

// TestRecoverWALRefusesParentWrittenFixture: testdata/journal_5e78ee8.wal
// was written by the build at commit 5e78ee8, whose journal was format
// version 1 (JSON lines), running journalFixture. This build reads no
// v1: recovery and OpenWAL refuse the file by name, and leave it
// byte for byte as it was, so a build that still upgrades v1 can boot
// it.
func TestRecoverWALRefusesParentWrittenFixture(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "journal_5e78ee8.wal"))
	if err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(t.TempDir(), "old.wal")
	if err := os.WriteFile(old, want, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RecoverWAL(old, nil, fuzzLogger()); !errors.Is(err, ErrJournalV1) {
		t.Fatalf("recovering the parent-written journal: err %v, want ErrJournalV1", err)
	}
	if _, err := OpenWAL(old, WALOptions{}); !errors.Is(err, ErrJournalV1) {
		t.Fatalf("opening the parent-written journal: err %v, want ErrJournalV1", err)
	}
	if got, err := os.ReadFile(old); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("a refused v1 journal was rewritten (err %v)", err)
	}
}
