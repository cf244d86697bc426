package store

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adaudit/internal/bytecodec"
)

// TestWALRefusesUnencodableEntry: a value the row format refuses fails
// the insert (or merge) with nothing journaled and nothing stored. A
// timestamp it cannot hold is refused by Validate, before the journal;
// a fraction it cannot hold, by the journal's encoder.
func TestWALRefusesUnencodableEntry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	w, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s := New()
	s.AttachWAL(w)

	encoding := "encoding wal entry"
	for i, c := range []struct {
		name, want string
		edit       func(*Impression)
	}{
		{"NaN fraction", encoding, func(im *Impression) { im.MaxVisibleFraction = math.NaN() }},
		{"-Inf fraction", encoding, func(im *Impression) { im.MaxVisibleFraction = math.Inf(-1) }},
		{"year 10000", bytecodec.ErrYear.Error(), func(im *Impression) { im.Timestamp = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC) }},
		{"year -1", bytecodec.ErrYear.Error(), func(im *Impression) { im.Timestamp = time.Date(-1, 12, 31, 0, 0, 0, 0, time.UTC) }},
		{"zone 24h", bytecodec.ErrZone.Error(), func(im *Impression) { im.Timestamp = im.Timestamp.In(time.FixedZone("", 24*3600)) }},
	} {
		im := fuzzImpression(i)
		c.edit(&im)
		if _, err := s.Insert(im); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: Insert err = %v, want %q", c.name, err, c.want)
		}
	}
	id, err := s.Insert(fuzzImpression(9))
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Merge(id, Continuation{MaxVisibleFraction: math.Inf(1)}); err == nil {
		t.Fatal("merge to an infinite fraction was journaled")
	}
	after, _ := os.ReadFile(path)
	if s.Len() != 1 || len(entryEnds(t, before)) != 1 || !bytes.Equal(before, after) {
		t.Fatalf("refused entries left a trace: %d records, journal %q then %q", s.Len(), before, after)
	}
	if got, _ := s.Get(id); got.MaxVisibleFraction != 0 {
		t.Fatalf("refused merge mutated the record: %+v", got)
	}
}

// TestJournaledInsertDoesNotAllocate: with a journal attached, an
// insert costs no allocation of its own — the entry is encoded into the
// journal's reused buffer, and nothing on that path (an error that
// formats a field, say) moves the record to the heap. What remains is
// the log's and the posting list's amortised growth.
func TestJournaledInsertDoesNotAllocate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	w, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s := New()
	s.AttachWAL(w)
	im := benchRecord(1)
	if allocs := testing.AllocsPerRun(2000, func() {
		if _, err := s.Insert(im); err != nil {
			t.Fatal(err)
		}
	}); allocs >= 0.5 {
		t.Fatalf("a journaled insert allocates %.2f times", allocs)
	}
}

// FuzzWALEntry is the row codec's round trip. An entry — a merge, an
// insert, or with op "conv…" a conversion — is refused exactly when it
// breaks a rule of the format (a non-finite fraction; a negative
// conversion value; a timestamp whose year is outside 0–9999 or whose
// zone is a day or more from UTC); an entry that is not decodes to
// itself, the timestamp's instant and zone offset included; and a body
// that decodes — op is tried as one too — re-encodes to the same bytes.
func FuzzWALEntry(f *testing.F) {
	f.Add("ins", "fz", "pub.es", "Mozilla/5.0 <Chrome&49>", int64(1), int64(1500), true, 0.5, int64(1459252800), int64(0), int32(0), true)
	f.Add("mrg", "", "", "", int64(7), int64(-3), false, 1e-7, int64(0), int64(0), int32(0), false)
	f.Add("\xff\xfe", "\u2028", "\b\f\n\r\t\x00", `"\`, int64(-1), int64(0), true, 1e21, int64(253402300800), int64(999999999), int32(3600), true)
	f.Add("ins", "a", "b", "c", int64(0), int64(0), false, math.NaN(), int64(-62135596801), int64(0), int32(-86400), true)
	// Raw bodies, as op: a merge, an insert, and the insert with its
	// literal user key rewritten to spell the derived one, which must
	// not decode; both with legs, and the insert with legs of leg 0's
	// mask, which must not decode either.
	merge, err := appendEntry(nil, &walEntry{Op: opMerge, ID: 3, ExposureNS: 2e9, Clicks: 1, VisMeasured: true, MaxVis: 0.25})
	if err != nil {
		f.Fatal(err)
	}
	row := &Impression{ID: 1, CampaignID: "c", UserKey: "x",
		Timestamp: time.Date(2016, 3, 29, 12, 0, 0, 5, time.FixedZone("", 5400)), Nonce: "n"}
	insert, err := appendEntry(nil, &walEntry{Op: opInsert, Im: row})
	if err != nil {
		f.Fatal(err)
	}
	mergeLegs, err := appendEntry(nil, &walEntry{Op: opMergeLegs, ID: 3, ExposureNS: 2e9, Clicks: 1, Legs: 0b101})
	if err != nil {
		f.Fatal(err)
	}
	insertLegs, err := appendEntry(nil, &walEntry{Op: opInsertLegs, Im: row, Legs: 1 << 31})
	if err != nil {
		f.Fatal(err)
	}
	leg0 := append(bytes.Clone(insertLegs[:len(insertLegs)-5]), 1)
	// A conversion, and the same with its value's zigzag varint (500,
	// two bytes) made -1, which must not decode.
	conv, err := appendEntry(nil, &walEntry{Op: opConversion, Conv: &Conversion{ID: 4, CampaignID: "c",
		UserKey: "p|ua", Action: "purchase", ValueCents: 250, Timestamp: row.Timestamp}})
	if err != nil {
		f.Fatal(err)
	}
	negative := bytes.Replace(conv, []byte("purchase\xf4\x03"), []byte("purchase\x01"), 1)
	for _, body := range [][]byte{merge, insert, bytes.Replace(insert, []byte{2, 'x'}, []byte{2, '|'}, 1), mergeLegs, insertLegs, leg0, conv, negative} {
		f.Add(string(body), "a", "b", "c", int64(2), int64(3), false, 0.5, int64(1459252800), int64(7), int32(-3600), false)
	}
	f.Add("conv", "c", "p|ua", "purchase", int64(1), int64(2500), false, 0.0, int64(1459252800), int64(5), int32(5400), false)
	f.Add("conv", "", "", "", int64(-3), int64(-1), true, math.NaN(), int64(253402300800), int64(0), int32(0), true)

	f.Fuzz(func(t *testing.T, op, a, b, c string, n, m int64, vis bool, frac float64, sec, nsec int64, zone int32, hasIm bool) {
		sec %= 1 << 40 // ±34,000 years: time's own calendar arithmetic stays exact
		ts := time.Unix(sec, nsec).In(time.FixedZone("", int(zone)))
		e := &walEntry{Op: opMerge, ID: n, ExposureNS: m, MouseMoves: int(n >> 7), Clicks: int(m >> 9), VisMeasured: vis, MaxVis: frac}
		if hasIm {
			e = &walEntry{Op: opInsert, Im: &Impression{
				ID: n, CampaignID: a, CreativeID: b, Publisher: c, PageURL: a + b, UserAgent: b,
				IPPseudonym: c, UserKey: c + "|" + b, ISP: a, Country: b, DataCenter: c, Timestamp: ts,
				Exposure: time.Duration(m), MouseMoves: int(m >> 3), Clicks: int(n >> 5),
				VisibilityMeasured: !vis, MaxVisibleFraction: -frac, Nonce: op,
			}}
			if vis { // a user key of its own, unless a spells the derived one's tail
				e.Im.UserKey = c + "|" + a
			}
		}
		badTime := ts.Year() < 0 || ts.Year() > 9999 || zone <= -86400 || zone >= 86400
		refuse := math.IsNaN(frac) || math.IsInf(frac, 0) || hasIm && badTime
		if strings.HasPrefix(op, "conv") {
			e = &walEntry{Op: opConversion, Conv: &Conversion{ID: n, CampaignID: a, UserKey: b, Action: c,
				ValueCents: m, Timestamp: ts}}
			refuse = m < 0 || badTime
		}
		body, err := appendEntry(nil, e)
		if refuse != (err != nil) {
			t.Fatalf("refuse = %v, but appendEntry error %v (fraction %v, timestamp %v)", refuse, err, frac, ts)
		}
		if err == nil {
			var back walEntry
			var row Impression
			if err := decodeEntry(body, &back, &row); err != nil {
				t.Fatalf("body does not decode: %v\n%x", err, body)
			}
			if e.Conv != nil {
				if back.Op != opConversion || !sameConversion(*back.Conv, *e.Conv) {
					t.Fatalf("conversion came back as %+v\nfrom %+v", back.Conv, e.Conv)
				}
			} else if hasIm {
				if back.Op != opInsert || !sameRecord(*back.Im, *e.Im) {
					t.Fatalf("insert came back as %+v\nfrom %+v", back.Im, e.Im)
				}
			} else if back != *e {
				t.Fatalf("merge came back as %+v\nfrom %+v", back, *e)
			}
			requireReencodes(t, body)
		}
		requireReencodes(t, []byte(op))
	})
}

// sameConversion reports whether a and b are equal, their timestamps by
// instant and zone offset.
func sameConversion(a, b Conversion) bool {
	_, offA := a.Timestamp.Zone()
	_, offB := b.Timestamp.Zone()
	if !a.Timestamp.Equal(b.Timestamp) || offA != offB {
		return false
	}
	a.Timestamp = b.Timestamp
	return a == b
}

// requireReencodes fails if body decodes to an entry that does not
// encode to body.
func requireReencodes(t *testing.T, body []byte) {
	t.Helper()
	var e walEntry
	var row Impression
	if decodeEntry(body, &e, &row) != nil {
		return
	}
	again, err := appendEntry(nil, &e)
	if err != nil || !bytes.Equal(again, body) {
		t.Fatalf("a decoded body re-encodes differently (err %v)\n  read %x\nwrote %x", err, body, again)
	}
}
