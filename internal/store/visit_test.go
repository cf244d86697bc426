package store

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

func visitFixture(t *testing.T) *Store {
	t.Helper()
	s := New()
	for i := 0; i < 40; i++ {
		im := Impression{
			CampaignID: fmt.Sprintf("c%d", i%4),
			Publisher:  fmt.Sprintf("pub%d.example", i%5),
			UserKey:    fmt.Sprintf("user%d", i%3),
			Timestamp:  time.Unix(int64(1000+i), 0),
			Exposure:   time.Duration(i) * time.Millisecond,
		}
		if _, err := s.Insert(im); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// The zero-copy visit path must see exactly what the copying scan
// returns for the campaign, in the same order.
func TestVisitMatchesCopyingAccessors(t *testing.T) {
	s := visitFixture(t)

	var want []Impression
	s.Visit(func(im *Impression) bool {
		if im.CampaignID == "c2" {
			want = append(want, *im)
		}
		return true
	})
	if got := campaignRows(s, "c2"); !reflect.DeepEqual(got, want) {
		t.Fatalf("VisitCampaign diverges from a filtered Visit:\n got %v\nwant %v", got, want)
	}
	if got := s.CampaignLen("c2"); got != len(want) {
		t.Fatalf("CampaignLen = %d, want %d", got, len(want))
	}

	n := 0
	s.Visit(func(im *Impression) bool { n++; return true })
	if n != s.Len() {
		t.Fatalf("Visit saw %d records, store holds %d", n, s.Len())
	}
}

func TestVisitEarlyStop(t *testing.T) {
	s := visitFixture(t)
	n := 0
	s.VisitCampaign("c0", func(*Impression) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("VisitCampaign visited %d records after early stop", n)
	}
	n = 0
	s.Visit(func(*Impression) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Visit visited %d records after immediate stop", n)
	}
}

func TestVisitUnknownKey(t *testing.T) {
	s := visitFixture(t)
	s.VisitCampaign("nope", func(*Impression) bool {
		t.Fatal("visited a record of an unknown campaign")
		return false
	})
}

// Sorted listings must stay correct as new keys appear — no call may
// be served a stale listing — and each belongs to its caller.
func TestListingCacheInvalidation(t *testing.T) {
	s := visitFixture(t)
	before := s.Campaigns()
	if again := s.Campaigns(); !reflect.DeepEqual(before, again) {
		t.Fatalf("repeated Campaigns() diverged: %v vs %v", before, again)
	}
	// A caller mutating its copy must not reach the next caller's.
	again := s.Campaigns()
	for i := range again {
		again[i] = "mutated"
	}
	if got := s.Campaigns(); !reflect.DeepEqual(got, before) {
		t.Fatalf("caller mutation leaked into the next listing: %v", got)
	}

	if _, err := s.Insert(Impression{
		CampaignID: "a-new-campaign", Publisher: "new.example", UserKey: "u",
		Timestamp: time.Unix(5, 0),
	}); err != nil {
		t.Fatal(err)
	}
	got := s.Campaigns()
	if len(got) != len(before)+1 || got[0] != "a-new-campaign" {
		t.Fatalf("Campaigns() after new key = %v", got)
	}
	if pubs := s.Publishers(""); len(pubs) != 6 || pubs[0] != "new.example" {
		t.Fatalf("Publishers(\"\") missing new key: %v", pubs)
	}
}

// Concurrent visits, length reads, listings and inserts must be safe
// (run under -race in CI) and every visited index must point at a
// fully published record.
func TestConcurrentVisitsAndInserts(t *testing.T) {
	s := New()
	const writers, perWriter = 4, 300
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				_, err := s.Insert(Impression{
					CampaignID: fmt.Sprintf("c%d", i%3),
					Publisher:  fmt.Sprintf("p%d.example", (w+i)%7),
					UserKey:    fmt.Sprintf("u%d", w),
					Timestamp:  time.Unix(int64(i+1), 0),
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.VisitCampaign("c1", func(im *Impression) bool {
					if im.CampaignID != "c1" {
						t.Errorf("index pointed at record of campaign %q", im.CampaignID)
						return false
					}
					return true
				})
				s.Campaigns()
				if n := s.CampaignLen("c2"); n > writers*perWriter {
					t.Errorf("CampaignLen(c2) = %d, more than was ever inserted", n)
				}
			}
		}()
	}

	// Let readers overlap the writers, then wind down.
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(stop)
	}()
	<-done

	if got := s.Len(); got != writers*perWriter {
		t.Fatalf("store holds %d records, want %d", got, writers*perWriter)
	}
	total := 0
	for _, c := range s.Campaigns() {
		s.VisitCampaign(c, func(*Impression) bool { total++; return true })
	}
	if total != writers*perWriter {
		t.Fatalf("campaign indexes cover %d records, want %d", total, writers*perWriter)
	}
}
