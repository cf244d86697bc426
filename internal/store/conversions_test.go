package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"adaudit/internal/bytecodec"
)

func testConversion(campaign, user string, at time.Time) Conversion {
	return Conversion{
		CampaignID: campaign,
		UserKey:    user,
		Action:     "purchase",
		ValueCents: 2500,
		Timestamp:  at,
	}
}

func TestInsertConversion(t *testing.T) {
	s := New()
	id, err := s.InsertConversion(testConversion("c", "u", t0))
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 || s.NumConversions() != 1 {
		t.Fatalf("id=%d num=%d", id, s.NumConversions())
	}
}

func TestInsertConversionValidates(t *testing.T) {
	s := New()
	bad := []Conversion{
		{},
		{CampaignID: "c"},
		{CampaignID: "c", UserKey: "u"},
		{CampaignID: "c", UserKey: "u", Action: "a"},
		{CampaignID: "c", UserKey: "u", Action: "a", Timestamp: t0, ValueCents: -1},
	}
	for i, c := range bad {
		if _, err := s.InsertConversion(c); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if s.NumConversions() != 0 {
		t.Fatal("invalid conversions stored")
	}
}

func TestConversionsQueries(t *testing.T) {
	s := New()
	s.InsertConversion(testConversion("c1", "u1", t0))
	s.InsertConversion(testConversion("c1", "u2", t0.Add(time.Hour)))
	s.InsertConversion(testConversion("c2", "u1", t0.Add(2*time.Hour)))

	if got := s.Conversions("c1"); len(got) != 2 {
		t.Fatalf("Conversions(c1) = %d", len(got))
	}
	if got := s.Conversions(""); len(got) != 3 {
		t.Fatalf("Conversions(all) = %d", len(got))
	}
	if got := s.Conversions("c3"); len(got) != 0 {
		t.Fatalf("Conversions(miss) = %d", len(got))
	}
}

// TestConversionSnapshotRoundTrip: the snapshot carries conversions
// after the rows, and reading it back gives every conversion its ID and
// fields, its timestamp's zone included.
func TestConversionSnapshotRoundTrip(t *testing.T) {
	s := New()
	s.Insert(walImpression("c", 1))
	for i := 0; i < 20; i++ {
		c := testConversion("c", "u", t0.Add(time.Duration(i)*time.Minute).In(time.FixedZone("", 3600*(i%3))))
		c.ValueCents = int64(100 * i)
		s.InsertConversion(c)
	}
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.NumConversions() != 20 || restored.Len() != 1 {
		t.Fatalf("restored %d conversions and %d records", restored.NumConversions(), restored.Len())
	}
	requireSameConversions(t, restored, s)
}

// requireSameConversions fails unless got holds want's conversions, ID
// for ID and field for field (sameConversion).
func requireSameConversions(t *testing.T, got, want *Store) {
	t.Helper()
	a, b := want.Conversions(""), got.Conversions("")
	if len(a) != len(b) {
		t.Fatalf("%d conversions, want %d", len(b), len(a))
	}
	for i := range a {
		if !sameConversion(b[i], a[i]) {
			t.Fatalf("conversion %d:\n got %+v\nwant %+v", a[i].ID, b[i], a[i])
		}
	}
}

// TestReadSnapshotRejectsInvalidConversion: a snapshot whose conversion
// would not pass InsertConversion, or does not carry the next ID, is
// refused; one that repeats a conversion loads it once.
func TestReadSnapshotRejectsInvalidConversion(t *testing.T) {
	snapshot := func(convs ...Conversion) *bytes.Reader {
		data := []byte(RowsHeader)
		for i := range convs {
			var err error
			if data, err = appendFramed(data, &walEntry{Op: opConversion, Conv: &convs[i]}); err != nil {
				t.Fatal(err)
			}
		}
		return bytes.NewReader(data)
	}
	good := testConversion("c", "u", t0)
	good.ID = 1
	noCampaign, gap := good, good
	noCampaign.CampaignID = ""
	gap.ID = 2
	for name, r := range map[string]*bytes.Reader{
		"no campaign": snapshot(noCampaign),
		"gap":         snapshot(gap),
		"garbage":     bytes.NewReader([]byte("{broken")),
	} {
		if _, err := ReadSnapshot(r); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	s, err := ReadSnapshot(snapshot(good, good))
	if err != nil || s.NumConversions() != 1 {
		t.Fatalf("a repeated conversion loaded as %d (err %v), want 1", s.NumConversions(), err)
	}
}

// TestInsertConversionFailedAppendStoresNothing: a conversion whose
// timestamp the format cannot hold (refused before the journal sees
// it), or whose write fails, returns the error and leaves no record, no
// feed event and no later ID gap.
func TestInsertConversionFailedAppendStoresNothing(t *testing.T) {
	path, w := openTestWAL(t, WALOptions{})
	s := New()
	s.AttachWAL(w)
	sub := s.Subscribe(4, nil, nil)
	defer sub.Close()
	if _, err := s.InsertConversion(testConversion("c", "u", time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC))); !errors.Is(err, bytecodec.ErrYear) {
		t.Fatalf("a year-10000 conversion: err %v, want %v", err, bytecodec.ErrYear)
	}
	if got, _ := os.ReadFile(path); string(got) != RowsHeader {
		t.Fatalf("the refused conversion was journaled: %q", got)
	}
	w.f.Close() // every later write fails
	if _, err := s.InsertConversion(testConversion("c", "u", t0)); err == nil ||
		!strings.Contains(err.Error(), "appending wal entry") {
		t.Fatalf("a conversion over a dead journal: err %v, want an append failure", err)
	}
	if s.NumConversions() != 0 || len(s.Conversions("c")) != 0 || len(sub.Events()) != 0 {
		t.Fatalf("failed appends stored %d conversions and published %d events", s.NumConversions(), len(sub.Events()))
	}
	s.AttachWAL(nil)
	if id, err := s.InsertConversion(testConversion("c", "u", t0)); err != nil || id != 1 {
		t.Fatalf("the next conversion got id %d (err %v), want 1", id, err)
	}
}

// TestConversionsSurviveConcurrentSnapshotCompact: writers insert
// conversions while SnapshotCompact publishes and resets the journal in
// a loop. The last snapshot plus the journal must then hold every
// acknowledged conversion exactly once — which needs the conversion
// journaled under the lock the compaction holds.
func TestConversionsSurviveConcurrentSnapshotCompact(t *testing.T) {
	walPath, w := openTestWAL(t, WALOptions{Policy: SyncGroup})
	snapPath := filepath.Join(t.TempDir(), "snap")
	s := New()
	s.AttachWAL(w)
	const writers, compactions = 4, 40
	stop := make(chan struct{})
	var wg sync.WaitGroup
	acked := make([][]int64, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id, err := s.InsertConversion(testConversion("c", fmt.Sprintf("u%d-%d", g, i), t0.Add(time.Duration(i)*time.Second)))
				if err != nil {
					t.Error(err)
					return
				}
				acked[g] = append(acked[g], id)
			}
		}(g)
	}
	for i := 0; i < compactions; i++ {
		if err := s.SnapshotCompact(snapPath); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	rec, _, err := RecoverWAL(walPath, readSnapshotFile(t, snapPath), fuzzLogger())
	if err != nil {
		t.Fatal(err)
	}
	requireSameConversions(t, rec, s)
	seen := map[string]int64{}
	for _, c := range rec.Conversions("c") {
		if prev, dup := seen[c.UserKey]; dup {
			t.Fatalf("conversion of %s recovered twice, as %d and %d", c.UserKey, prev, c.ID)
		}
		seen[c.UserKey] = c.ID
	}
	for g := range acked {
		for i, id := range acked[g] {
			if got := seen[fmt.Sprintf("u%d-%d", g, i)]; got != id {
				t.Fatalf("acknowledged conversion %d of writer %d recovered as id %d", id, g, got)
			}
		}
	}
}

func TestConversionsConcurrent(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := s.InsertConversion(testConversion("c", "u", t0.Add(time.Duration(i)*time.Second))); err != nil {
					t.Error(err)
					return
				}
				s.NumConversions()
				s.Conversions("c")
			}
		}(w)
	}
	wg.Wait()
	if s.NumConversions() != 800 {
		t.Fatalf("NumConversions = %d", s.NumConversions())
	}
}
