package store

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"adaudit/internal/bytecodec"
)

func testImpression(campaign, publisher, user string, at time.Time) Impression {
	return Impression{
		CampaignID:  campaign,
		CreativeID:  "cr1",
		Publisher:   publisher,
		PageURL:     "http://" + publisher + "/page",
		UserAgent:   "UA",
		IPPseudonym: "abcd",
		UserKey:     user,
		ISP:         "isp-a",
		Country:     "ES",
		DataCenter:  "not-data-center",
		Timestamp:   at,
		Exposure:    1500 * time.Millisecond,
		MouseMoves:  2,
		Clicks:      1,
	}
}

var t0 = time.Date(2016, 3, 29, 12, 0, 0, 0, time.UTC)

// campaignRows copies one campaign's records out in index order.
func campaignRows(s *Store, campaignID string) []Impression {
	var out []Impression
	s.VisitCampaign(campaignID, func(im *Impression) bool {
		out = append(out, *im)
		return true
	})
	return out
}

func TestInsertAssignsSequentialIDs(t *testing.T) {
	s := New()
	for i := 1; i <= 5; i++ {
		id, err := s.Insert(testImpression("c", "p.es", "u", t0))
		if err != nil {
			t.Fatal(err)
		}
		if id != int64(i) {
			t.Fatalf("id = %d, want %d", id, i)
		}
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestInsertValidates(t *testing.T) {
	s := New()
	bad := []Impression{
		{},
		{CampaignID: "c"},
		{CampaignID: "c", Publisher: "p"},
		{CampaignID: "c", Publisher: "p", UserKey: "u"},
		func() Impression {
			im := testImpression("c", "p", "u", t0)
			im.Exposure = -time.Second
			return im
		}(),
	}
	for i, im := range bad {
		if _, err := s.Insert(im); err == nil {
			t.Errorf("case %d: invalid impression accepted", i)
		}
	}
	if s.Len() != 0 {
		t.Fatal("invalid inserts changed the store")
	}
}

// TestInsertRefusesTimesTheCodecsRefuse: a store without a journal
// admits no impression or conversion whose timestamp the binary codecs
// cannot read back (bytecodec.CheckTime), so no audit state built from
// it packs into bytes its reader refuses.
func TestInsertRefusesTimesTheCodecsRefuse(t *testing.T) {
	cases := []struct {
		name string
		at   time.Time
		want error
	}{
		{"year 10000", time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), bytecodec.ErrYear},
		{"year 10000 on the wall clock", time.Date(9999, 12, 31, 23, 30, 0, 0, time.UTC).In(time.FixedZone("", 3600)), bytecodec.ErrYear},
		{"zone 24 h east", t0.In(time.FixedZone("", 24*3600)), bytecodec.ErrZone},
		{"zone 25 h west", t0.In(time.FixedZone("", -25*3600)), bytecodec.ErrZone},
	}
	s := New()
	for _, c := range cases {
		if _, err := s.Insert(testImpression("c", "p", "u", c.at)); !errors.Is(err, c.want) {
			t.Errorf("impression at %s: Insert error %v, want %v", c.name, err, c.want)
		}
		if _, err := s.InsertConversion(testConversion("c", "u", c.at)); !errors.Is(err, c.want) {
			t.Errorf("conversion at %s: InsertConversion error %v, want %v", c.name, err, c.want)
		}
	}
	if s.Len() != 0 || s.NumConversions() != 0 {
		t.Fatalf("refused rows changed the store: %d impressions, %d conversions", s.Len(), s.NumConversions())
	}
	last := time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC)
	if _, err := s.Insert(testImpression("c", "p", "u", last)); err != nil {
		t.Errorf("the last second of year 9999 refused: %v", err)
	}
	if _, err := s.InsertConversion(testConversion("c", "u", last)); err != nil {
		t.Errorf("a conversion in the last second of year 9999 refused: %v", err)
	}
}

func TestGet(t *testing.T) {
	s := New()
	id, _ := s.Insert(testImpression("c", "p.es", "u", t0))
	got, ok := s.Get(id)
	if !ok || got.Publisher != "p.es" {
		t.Fatalf("Get(%d) = %+v, %v", id, got, ok)
	}
	if _, ok := s.Get(0); ok {
		t.Fatal("Get(0) succeeded")
	}
	if _, ok := s.Get(99); ok {
		t.Fatal("Get(99) succeeded")
	}
}

func TestIndexes(t *testing.T) {
	s := New()
	s.Insert(testImpression("A", "p1.es", "u1", t0))
	s.Insert(testImpression("A", "p2.es", "u1", t0.Add(time.Minute)))
	s.Insert(testImpression("B", "p1.es", "u2", t0.Add(2*time.Minute)))

	if got := campaignRows(s, "A"); len(got) != 2 || got[0].Publisher != "p1.es" || got[1].Publisher != "p2.es" {
		t.Fatalf("campaign A = %+v", got)
	}
	if got := s.CampaignLen("A"); got != 2 {
		t.Fatalf("CampaignLen(A) = %d", got)
	}
	if got := s.CampaignLen("missing"); got != 0 {
		t.Fatalf("CampaignLen(missing) = %d", got)
	}
	cs := s.Campaigns()
	if len(cs) != 2 || cs[0] != "A" || cs[1] != "B" {
		t.Fatalf("Campaigns = %v", cs)
	}
}

func TestPublishersAndUsers(t *testing.T) {
	s := New()
	s.Insert(testImpression("A", "p1.es", "u1", t0))
	s.Insert(testImpression("A", "p2.es", "u2", t0))
	s.Insert(testImpression("B", "p3.es", "u1", t0))

	if got := s.Publishers("A"); !reflect.DeepEqual(got, []string{"p1.es", "p2.es"}) {
		t.Fatalf("Publishers(A) = %v", got)
	}
	if got := s.Publishers(""); !reflect.DeepEqual(got, []string{"p1.es", "p2.es", "p3.es"}) {
		t.Fatalf("Publishers(all) = %v", got)
	}
	if got := s.Publishers("missing"); len(got) != 0 {
		t.Fatalf("Publishers(missing) = %v", got)
	}
}

func TestConcurrentInsertAndRead(t *testing.T) {
	s := New()
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				im := testImpression(
					fmt.Sprintf("c%d", w%3),
					fmt.Sprintf("p%d.es", i%17),
					fmt.Sprintf("u%d-%d", w, i%11),
					t0.Add(time.Duration(i)*time.Second),
				)
				if _, err := s.Insert(im); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Concurrent readers.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.Len()
				s.Publishers("")
				s.CampaignLen("c0")
			}
		}()
	}
	wg.Wait()
	if s.Len() != writers*perWriter {
		t.Fatalf("Len = %d, want %d", s.Len(), writers*perWriter)
	}
	// IDs must be a permutation-free 1..N sequence.
	seen := map[int64]bool{}
	s.Visit(func(im *Impression) bool {
		if seen[im.ID] {
			t.Errorf("duplicate id %d", im.ID)
		}
		seen[im.ID] = true
		return true
	})
	if len(seen) != writers*perWriter {
		t.Fatalf("distinct ids = %d", len(seen))
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := New()
	for i := 0; i < 50; i++ {
		im := testImpression(fmt.Sprintf("c%d", i%3), fmt.Sprintf("p%d.es", i%7),
			fmt.Sprintf("u%d", i%11), t0.Add(time.Duration(i)*time.Minute))
		im.Exposure = time.Duration(i) * 100 * time.Millisecond
		s.Insert(im)
	}
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("restored %d records, want %d", got.Len(), s.Len())
	}
	for id := int64(1); id <= int64(s.Len()); id++ {
		a, _ := s.Get(id)
		b, _ := got.Get(id)
		if !a.Timestamp.Equal(b.Timestamp) {
			t.Fatalf("record %d timestamp mismatch", id)
		}
		a.Timestamp, b.Timestamp = time.Time{}, time.Time{}
		if a != b {
			t.Fatalf("record %d mismatch:\n%+v\n%+v", id, a, b)
		}
	}
	// The index must be rebuilt.
	for _, c := range s.Campaigns() {
		if got.CampaignLen(c) != s.CampaignLen(c) {
			t.Fatalf("campaign %s: restored index holds %d rows, want %d", c, got.CampaignLen(c), s.CampaignLen(c))
		}
	}
}

func TestReadSnapshotRejectsGarbage(t *testing.T) {
	if _, err := ReadSnapshot(strings.NewReader("{not json")); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
	// A v1 (JSON lines) record, which this build does not read.
	if _, err := ReadSnapshot(strings.NewReader(`{"campaign_id":""}`)); err == nil {
		t.Fatal("v1 record accepted")
	}
	// A frame that does not check out, and a row that does but is not a
	// valid record.
	if _, err := ReadSnapshot(strings.NewReader(RowsHeader + "not a frame, not a row")); err == nil {
		t.Fatal("garbage v2 snapshot accepted")
	}
	row, err := appendFramed([]byte(RowsHeader), &walEntry{Op: opInsert, Im: &Impression{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(bytes.NewReader(row)); err == nil {
		t.Fatal("invalid v2 record accepted")
	}
}

func TestWriteCSV(t *testing.T) {
	s := New()
	s.Insert(testImpression("c1", "p1.es", "u1", t0))
	s.Insert(testImpression("c2", "p2.es", "u2", t0.Add(time.Hour)))
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("csv rows = %d, want header + 2", len(recs))
	}
	if recs[0][0] != "id" || recs[1][1] != "c1" || recs[2][3] != "p2.es" {
		t.Fatalf("csv content unexpected: %v", recs)
	}
	if recs[1][12] != "1500" {
		t.Fatalf("exposure_ms = %q, want 1500", recs[1][12])
	}
}

// Property: inserting any set of valid records keeps the index
// consistent with a full scan.
func TestIndexConsistencyProperty(t *testing.T) {
	err := quick.Check(func(camps, pubs, users []uint8) bool {
		n := len(camps)
		if len(pubs) < n {
			n = len(pubs)
		}
		if len(users) < n {
			n = len(users)
		}
		s := New()
		for i := 0; i < n; i++ {
			s.Insert(testImpression(
				fmt.Sprintf("c%d", camps[i]%5),
				fmt.Sprintf("p%d.es", pubs[i]%7),
				fmt.Sprintf("u%d", users[i]%9),
				t0.Add(time.Duration(i)*time.Second)))
		}
		// Cross-check the index against a scan.
		counts := map[string]int{}
		s.Visit(func(im *Impression) bool {
			counts[im.CampaignID]++
			return true
		})
		for c, want := range counts {
			if got := s.CampaignLen(c); got != want {
				return false
			}
		}
		total := 0
		for _, c := range s.Campaigns() {
			total += s.CampaignLen(c)
		}
		return total == s.Len()
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}
