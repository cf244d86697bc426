package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// readBackRows is one seeded history of leg commits and merges: rows
// with empty optional strings, one string ("shared") in several
// columns, timestamps with a monotonic reading and in non-UTC zones,
// and records that merged further legs. It returns each record as the
// store must read it back, ID included.
func readBackRows(t *testing.T, s *Store, seed int64) []Impression {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	// The first rows take each pool's values in turn, so that every
	// value of every pool is stored (the campaign and creative
	// dictionaries hold four values each, and TestReadBackCatchesSwappedIDs
	// may read one's ids against the other).
	var i int
	pick := func(vals ...string) string {
		if i < len(vals) {
			return vals[i]
		}
		return vals[rng.Intn(len(vals))]
	}
	zones := []*time.Location{time.UTC, time.Local, time.FixedZone("CEST", 2*3600),
		time.FixedZone("", -(5*3600 + 30*60)), time.FixedZone("", 90)}
	base := time.Date(2016, 3, 29, 12, 0, 0, 0, time.UTC)
	var want []Impression
	var nonces []string
	legs := map[string]uint8{}
	for ; i < 400; i++ {
		im := Impression{
			CampaignID:  pick("shared", "c1", "c2", "c3"),
			CreativeID:  pick("", "shared", "cr1", "cr2"),
			Publisher:   pick("shared", "pub1.es", "pub2.es", fmt.Sprintf("pub%d.es", i)),
			PageURL:     pick("", fmt.Sprintf("http://pub%d.es/p", i)),
			UserAgent:   pick("", "shared", "Mozilla/5.0 Chrome/49.0", "Mozilla/5.0 Firefox/45.0"),
			IPPseudonym: pick("", "shared", fmt.Sprintf("ip%d", i%40)),
			ISP:         pick("", "shared", "isp-a", "isp-b"),
			Country:     pick("", "ES", "FR", "shared"),
			DataCenter:  pick("", "not-data-center", "data-center", "shared"),
			Exposure:    time.Duration(rng.Intn(30_000)) * time.Millisecond,
			MouseMoves:  rng.Intn(5),
			Clicks:      rng.Intn(2),
		}
		im.UserKey = pick("shared", im.IPPseudonym+"|"+im.UserAgent, fmt.Sprintf("user%d", i%60))
		if rng.Intn(2) == 0 {
			im.VisibilityMeasured, im.MaxVisibleFraction = true, float64(rng.Intn(101))/100
		}
		if rng.Intn(3) == 0 {
			im.Timestamp = time.Now() // carries a monotonic reading
		} else {
			im.Timestamp = base.Add(time.Duration(rng.Int63n(int64(72 * time.Hour)))).In(zones[rng.Intn(len(zones))])
		}
		leg := uint8(0)
		switch {
		case i >= 4 && rng.Intn(4) == 0: // a further leg of an earlier nonce
			im.Nonce = nonces[rng.Intn(len(nonces))]
			legs[im.Nonce]++
			leg = legs[im.Nonce]
		case i < 4 || rng.Intn(3) > 0:
			im.Nonce = fmt.Sprintf("n%d", i)
			nonces = append(nonces, im.Nonce)
		}
		id, outcome, err := s.CommitLeg(im, leg, nil)
		if err != nil {
			t.Fatal(err)
		}
		switch outcome {
		case LegInserted:
			im.ID = id
			want = append(want, im)
		case LegMerged:
			w := &want[id-1]
			w.Exposure += im.Exposure
			w.MouseMoves += im.MouseMoves
			w.Clicks += im.Clicks
			w.VisibilityMeasured = w.VisibilityMeasured || im.VisibilityMeasured
			w.MaxVisibleFraction = max(w.MaxVisibleFraction, im.MaxVisibleFraction)
		default:
			t.Fatalf("commit %d: outcome %d", i, outcome)
		}
	}
	return want
}

// onDisk is im as the row format keeps it: the instant and the zone
// offset of its timestamp, without the monotonic reading or the zone's
// name.
func onDisk(t *testing.T, im Impression) Impression {
	t.Helper()
	body, err := appendEntry(nil, &walEntry{Op: opInsert, Im: &im})
	if err != nil {
		t.Fatal(err)
	}
	var e walEntry
	var back Impression
	if err := decodeEntry(body, &e, &back); err != nil {
		t.Fatal(err)
	}
	return back
}

// readsBack reports the first read of s that does not yield want: each
// read path must give back every record, in order, reflect.DeepEqual
// to its want.
func readsBack(s *Store, want []Impression) error {
	check := func(path string, got []Impression, want []Impression) error {
		if len(got) != len(want) {
			return fmt.Errorf("%s reads back %d rows, want %d", path, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				return fmt.Errorf("%s reads back row %d as\n %+v\nwant\n %+v", path, i, got[i], want[i])
			}
		}
		return nil
	}
	var got []Impression
	for id := int64(1); id <= int64(s.Len()); id++ {
		im, _ := s.Get(id)
		got = append(got, im)
	}
	if err := check("Get", got, want); err != nil {
		return err
	}

	got = nil
	s.Visit(func(im *Impression) bool { got = append(got, *im); return true })
	if err := check("Visit", got, want); err != nil {
		return err
	}

	for _, c := range s.Campaigns() {
		got = nil
		s.VisitCampaign(c, func(im *Impression) bool { got = append(got, *im); return true })
		var of []Impression
		for _, w := range want {
			if w.CampaignID == c {
				of = append(of, w)
			}
		}
		if err := check("VisitCampaign("+c+")", got, of); err != nil {
			return err
		}
	}

	got = nil
	s.Subscribe(1, func(im *Impression) { got = append(got, *im) }, nil).Close()
	return check("Subscribe prime", got, want)
}

// TestStoredRowsReadBackExactly: a row is stored as dictionary ids and
// strings, and built back into an Impression at each read. Every read
// path must give back exactly what was committed, and a snapshot or a
// journal exactly what the row format keeps of it.
func TestStoredRowsReadBackExactly(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "j.wal")
	w, err := OpenWAL(walPath, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s := New()
	s.AttachWAL(w)
	want := readBackRows(t, s, 1)
	if err := readsBack(s, want); err != nil {
		t.Fatalf("live store: %v", err)
	}

	kept := make([]Impression, len(want))
	for i := range want {
		kept[i] = onDisk(t, want[i])
	}
	var snap bytes.Buffer
	if err := s.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	fromSnap, err := ReadSnapshot(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := readsBack(fromSnap, kept); err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}

	rec, _, err := RecoverWAL(walPath, nil, fuzzLogger())
	if err != nil {
		t.Fatal(err)
	}
	if err := readsBack(rec, kept); err != nil {
		t.Fatalf("RecoverWAL: %v", err)
	}
}

// TestReadBackCatchesSwappedIDs is the read-back check's mutant: every
// stored row gets its campaign and creative ids swapped, and the check
// must then report a row that reads back wrong.
func TestReadBackCatchesSwappedIDs(t *testing.T) {
	s := New()
	want := readBackRows(t, s, 1)
	for i := 0; i < s.recs.len(); i++ {
		r := s.recs.at(i)
		r.campaign, r.creative = r.creative, r.campaign
	}
	err := readsBack(s, want)
	if err == nil {
		t.Fatal("rows with swapped campaign and creative ids read back as committed")
	}
	t.Logf("caught: %v", err)
}

// TestReadersWhileDictionariesGrow runs every reader of the log — Visit,
// VisitCampaign, a Subscribe prime, Publishers("") and SnapshotCompact
// — against writers whose every row adds a value to every dictionary.
// Each row carries its number in all six dictionary columns and in its
// publisher and user key, so a reader that resolved an id against a
// dictionary mid-growth, or against the wrong one, reads a row that
// disagrees with itself. Run it under -race.
func TestReadersWhileDictionariesGrow(t *testing.T) {
	const writers, perWriter = 2, 100
	s := New()
	snapPath := filepath.Join(t.TempDir(), "imps.snap")
	check := func(im *Impression) {
		n := im.CampaignID[1:]
		if im.CreativeID != "cr"+n || im.Publisher != "p"+n+".es" || im.UserAgent != "ua"+n ||
			im.ISP != "isp"+n || im.Country != "co"+n || im.DataCenter != "dc"+n || im.UserKey != "u"+n {
			t.Errorf("row %d disagrees with itself: %+v", im.ID, *im)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				n := fmt.Sprint(w*perWriter + i)
				im := Impression{
					CampaignID: "c" + n, CreativeID: "cr" + n, Publisher: "p" + n + ".es", UserAgent: "ua" + n,
					ISP: "isp" + n, Country: "co" + n, DataCenter: "dc" + n, UserKey: "u" + n,
					Timestamp: time.Unix(int64(i+1), 0),
				}
				if _, err := s.Insert(im); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	read := func(fn func()) {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
					fn()
				}
			}
		}()
	}
	read(func() { s.Visit(func(im *Impression) bool { check(im); return true }) })
	read(func() {
		for _, c := range s.Campaigns() {
			s.VisitCampaign(c, func(im *Impression) bool { check(im); return true })
		}
	})
	read(func() { s.Subscribe(1, check, nil).Close() })
	read(func() { s.Publishers("") })
	read(func() {
		if err := s.SnapshotCompact(snapPath); err != nil {
			t.Error(err)
		}
	})
	wg.Wait()
	close(done)
	readers.Wait()
	if err := s.SnapshotCompact(snapPath); err != nil {
		t.Fatal(err)
	}
	snap := readSnapshotFile(t, snapPath)
	snap.Visit(func(im *Impression) bool { check(im); return true })
	if snap.Len() != writers*perWriter {
		t.Fatalf("the last snapshot holds %d rows, want %d", snap.Len(), writers*perWriter)
	}
}
