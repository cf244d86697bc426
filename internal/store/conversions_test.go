package store

import (
	"bytes"
	"sync"
	"testing"
	"time"
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

func TestConversionSnapshotRoundTrip(t *testing.T) {
	s := New()
	for i := 0; i < 20; i++ {
		c := testConversion("c", "u", t0.Add(time.Duration(i)*time.Minute))
		c.ValueCents = int64(100 * i)
		s.InsertConversion(c)
	}
	var buf bytes.Buffer
	if err := s.WriteConversionsSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := New()
	if err := restored.ReadConversionsSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.NumConversions() != 20 {
		t.Fatalf("restored %d conversions", restored.NumConversions())
	}
	a := s.Conversions("c")
	b := restored.Conversions("c")
	for i := range a {
		if a[i].ValueCents != b[i].ValueCents || !a[i].Timestamp.Equal(b[i].Timestamp) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestReadConversionsSnapshotRejectsGarbage(t *testing.T) {
	s := New()
	if err := s.ReadConversionsSnapshot(bytes.NewBufferString("{broken")); err == nil {
		t.Fatal("garbage accepted")
	}
	if err := s.ReadConversionsSnapshot(bytes.NewBufferString(`{"campaign_id":""}`)); err == nil {
		t.Fatal("invalid record accepted")
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
