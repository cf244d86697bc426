package store

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// checkEntry holds appendEntry to json.Marshal on one entry: the same
// bytes, or both refuse. It returns the line (nil when refused).
func checkEntry(t testing.TB, e *walEntry) []byte {
	t.Helper()
	got, gerr := appendEntry(nil, e)
	want, werr := json.Marshal(e)
	if (gerr != nil) != (werr != nil) {
		t.Fatalf("appendEntry error %v, json.Marshal error %v, entry %+v im %+v", gerr, werr, *e, e.Im)
	}
	if werr != nil {
		return nil
	}
	if want = append(want, '\n'); !bytes.Equal(got, want) {
		t.Fatalf("journal line differs from encoding/json\n got %s\nwant %s", got, want)
	}
	return got
}

// randomEntry draws an entry whose every field comes from the hostile
// tables or a random generator, inserts and merges alike.
func randomEntry(rng *rand.Rand) *walEntry {
	str := func() string {
		if rng.Intn(3) > 0 {
			return hostileStrings[rng.Intn(len(hostileStrings))]
		}
		b := make([]byte, rng.Intn(24))
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return string(b)
	}
	num := func() float64 {
		if rng.Intn(3) == 0 {
			return hostileFloats[rng.Intn(len(hostileFloats))]
		}
		return math.Float64frombits(rng.Uint64())
	}
	when := func() time.Time {
		if rng.Intn(3) == 0 {
			return hostileTimes[rng.Intn(len(hostileTimes))]
		}
		return time.Unix(rng.Int63n(1<<38)-1<<36, rng.Int63n(1e9)).In(time.FixedZone("", rng.Intn(30*3600)-15*3600))
	}
	small := func() int64 { return rng.Int63n(5) * rng.Int63n(1<<40) }
	e := &walEntry{Op: []string{"ins", "mrg", str()}[rng.Intn(3)]}
	if rng.Intn(2) == 0 {
		e.Im = &Impression{
			ID: small(), CampaignID: str(), CreativeID: str(), Publisher: str(),
			PageURL: str(), UserAgent: str(), IPPseudonym: str(), UserKey: str(),
			ISP: str(), Country: str(), DataCenter: str(), Timestamp: when(),
			Exposure: time.Duration(small()), MouseMoves: int(small()), Clicks: int(small()),
			VisibilityMeasured: rng.Intn(2) == 0, MaxVisibleFraction: num(), Nonce: str(),
		}
	}
	if rng.Intn(2) == 0 {
		e.ID, e.ExposureNS, e.MouseMoves, e.Clicks = small(), -small(), int(small()), int(small())
		e.VisMeasured, e.MaxVis = rng.Intn(2) == 0, num()
	}
	return e
}

func TestAppendEntryMatchesEncodingJSON(t *testing.T) {
	// Every hostile value in every position it can take.
	for _, s := range hostileStrings {
		checkEntry(t, &walEntry{Op: s, Im: &Impression{CampaignID: s, UserAgent: s, UserKey: "k|" + s, Nonce: s}})
	}
	for _, f := range hostileFloats {
		checkEntry(t, &walEntry{Op: "mrg", ID: 1, MaxVis: f})
		checkEntry(t, &walEntry{Op: "ins", Im: &Impression{MaxVisibleFraction: f}})
	}
	for _, ts := range hostileTimes {
		checkEntry(t, &walEntry{Op: "ins", Im: &Impression{Timestamp: ts}})
	}
	rng := rand.New(rand.NewSource(20))
	n, refused := 50000, 0
	if testing.Short() {
		n = 5000
	}
	for i := 0; i < n; i++ {
		if checkEntry(t, randomEntry(rng)) == nil {
			refused++
		}
	}
	if refused == 0 || refused == n {
		t.Fatalf("%d of %d random entries refused: the generator no longer covers both outcomes", refused, n)
	}
}

// TestSnapshotMatchesEncodingJSON: the snapshot file is what a
// json.Encoder wrote before the row encoder replaced it, on rows that
// exercise every escape.
func TestSnapshotMatchesEncodingJSON(t *testing.T) {
	s := New()
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for i, str := range hostileStrings {
		im := fuzzImpression(i % 20)
		im.UserAgent, im.PageURL, im.Nonce = str, "http://pub.es/"+str, str
		im.MaxVisibleFraction = hostileFloats[i%11] // the finite ones
		im.VisibilityMeasured = i%2 == 0
		im.Timestamp = hostileTimes[1+i%6]
		if _, err := s.Insert(im); err != nil {
			t.Fatal(err)
		}
		im.ID = int64(i + 1)
		if err := enc.Encode(&im); err != nil {
			t.Fatal(err)
		}
	}
	var got bytes.Buffer
	if err := s.WriteSnapshot(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("snapshot differs from json.Encoder's\n got %s\nwant %s", got.Bytes(), want.Bytes())
	}
	// A row with no JSON form fails the snapshot, as it always did.
	bad := New()
	im := fuzzImpression(0)
	im.MaxVisibleFraction = math.NaN()
	if _, err := bad.Insert(im); err != nil {
		t.Fatal(err)
	}
	if err := bad.WriteSnapshot(&got); err == nil || !strings.Contains(err.Error(), "snapshot record 1") {
		t.Fatalf("snapshot of a NaN row: err = %v, want an encoding error naming record 1", err)
	}
}

// TestWALRefusesUnencodableEntry: a value encoding/json refuses fails
// the insert (or merge) with nothing journaled and nothing stored.
func TestWALRefusesUnencodableEntry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	w, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s := New()
	s.AttachWAL(w)

	nan := fuzzImpression(0)
	nan.MaxVisibleFraction = math.NaN()
	late := fuzzImpression(1)
	late.Timestamp = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	for name, im := range map[string]Impression{"NaN fraction": nan, "year 10000": late} {
		if _, err := s.Insert(im); err == nil || !strings.Contains(err.Error(), "encoding wal entry") {
			t.Fatalf("%s: Insert err = %v, want an encoding failure", name, err)
		}
	}
	id, err := s.Insert(fuzzImpression(2))
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
	if s.Len() != 1 || bytes.Count(before, []byte("\n")) != 1 || !bytes.Equal(before, after) {
		t.Fatalf("refused entries left a trace: %d records, journal %q then %q", s.Len(), before, after)
	}
	if got, _ := s.Get(id); got.MaxVisibleFraction != 0 {
		t.Fatalf("refused merge mutated the record: %+v", got)
	}
}

// FuzzWALEntry is the differential target behind the journal's format
// guarantee: appendEntry writes json.Marshal's bytes or both refuse,
// the line reads back with encoding/json, and what was read re-encodes
// to the same line (to a fixed point where the read normalised it).
func FuzzWALEntry(f *testing.F) {
	f.Add("ins", "fz", "pub.es", "Mozilla/5.0 <Chrome&49>", int64(1), int64(1500), true, 0.5, int64(1459252800), int64(0), int32(0), true)
	f.Add("mrg", "", "", "", int64(7), int64(-3), false, 1e-7, int64(0), int64(0), int32(0), false)
	f.Add("\xff\xfe", "\u2028", "\b\f\n\r\t\x00", `"\`, int64(-1), int64(0), true, 1e21, int64(253402300800), int64(999999999), int32(3600), true)
	f.Add("ins", "a", "b", "c", int64(0), int64(0), false, math.NaN(), int64(-62135596801), int64(0), int32(-86400), true)

	f.Fuzz(func(t *testing.T, op, a, b, c string, n, m int64, vis bool, frac float64, sec, nsec int64, zone int32, hasIm bool) {
		e := &walEntry{Op: op, ID: n, ExposureNS: m, MouseMoves: int(n >> 7), Clicks: int(m >> 9), VisMeasured: vis, MaxVis: frac}
		if hasIm {
			e.Im = &Impression{
				ID: n, CampaignID: a, CreativeID: b, Publisher: c, PageURL: a + b, UserAgent: b + c,
				IPPseudonym: c, UserKey: c + "|" + b, ISP: a, Country: b, DataCenter: c,
				Timestamp: time.Unix(sec, nsec).In(time.FixedZone("", int(zone))),
				Exposure:  time.Duration(m), MouseMoves: int(m >> 3), Clicks: int(n >> 5),
				VisibilityMeasured: !vis, MaxVisibleFraction: -frac, Nonce: a,
			}
		}
		line := checkEntry(t, e)
		if line == nil {
			return
		}
		reencode := func(line []byte) []byte {
			var back walEntry
			if err := json.Unmarshal(line, &back); err != nil {
				t.Fatalf("journal line does not read back: %v\n%s", err, line)
			}
			return checkEntry(t, &back)
		}
		// A read normalises two things, in either encoder: invalid UTF-8
		// became U+FFFD, and a zone offset under a minute reads as UTC.
		again := reencode(line)
		if valid := utf8.ValidString; valid(op) && valid(a) && valid(b) && valid(c) && zone%60 == 0 {
			if !bytes.Equal(again, line) {
				t.Fatalf("line changed across a read\n first %s\nsecond %s", line, again)
			}
		} else if third := reencode(again); !bytes.Equal(third, again) {
			t.Fatalf("a read line did not settle\nsecond %s\n third %s", again, third)
		}
	})
}
