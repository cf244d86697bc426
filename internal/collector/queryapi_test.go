package collector

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/store"
)

func queryFixture(t *testing.T) (*Collector, *store.Store, string) {
	t.Helper()
	c, st := testCollector(t)
	srv := serve(t, c)

	base := time.Date(2016, 3, 29, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 30; i++ {
		obs := Observation{
			Payload: beacon.Payload{
				CampaignID: "camp-a",
				CreativeID: "cr",
				PageURL:    fmt.Sprintf("http://pub%d.es/p", i%6),
				UserAgent:  fmt.Sprintf("UA-%d", i%9),
			},
			RemoteIP:    netip.AddrFrom4([4]byte{10, 0, 1, byte(i%200 + 1)}),
			ConnectedAt: base.Add(time.Duration(i) * time.Minute),
			Exposure:    time.Duration(i%3) * time.Second, // 1/3 below 1s
		}
		if _, err := c.Ingest(obs); err != nil {
			t.Fatal(err)
		}
	}
	c.IngestConversion(ConversionObservation{
		Conversion: beacon.Conversion{CampaignID: "camp-a", Action: "purchase", ValueCents: 100},
		RemoteIP:   netip.MustParseAddr("10.0.1.1"),
		UserAgent:  "UA-0",
		At:         base.Add(time.Hour),
	})
	return c, st, "http://" + srv.Addr().String()
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestAPICampaigns(t *testing.T) {
	_, _, base := queryFixture(t)
	var list []CampaignListEntry
	if code := getJSON(t, base+"/api/campaigns", &list); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(list) != 1 || list[0].CampaignID != "camp-a" || list[0].Impressions != 30 {
		t.Fatalf("campaigns = %+v", list)
	}
}

func TestAPISummary(t *testing.T) {
	_, st, base := queryFixture(t)
	var sum CampaignSummary
	if code := getJSON(t, base+"/api/summary?campaign=camp-a", &sum); code != 200 {
		t.Fatalf("status %d", code)
	}
	if sum.Impressions != 30 || sum.Publishers != 6 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.Conversions != 1 {
		t.Fatalf("conversions = %d", sum.Conversions)
	}
	// Exposures are 0s/1s/2s round-robin: 2/3 at or above 1s.
	if sum.ViewableUpperBound < 0.6 || sum.ViewableUpperBound > 0.7 {
		t.Fatalf("viewable = %v", sum.ViewableUpperBound)
	}
	if sum.FirstSeen.IsZero() || !sum.LastSeen.After(sum.FirstSeen) {
		t.Fatalf("window = %v..%v", sum.FirstSeen, sum.LastSeen)
	}

	// Clicks and the data-center rule: of these three verdicts only
	// provider-db counts.
	at := time.Date(2016, 3, 30, 0, 0, 0, 0, time.UTC)
	for i, verdict := range []string{"provider-db", "vpn-exception", "not-data-center"} {
		if _, err := st.Insert(store.Impression{CampaignID: "camp-b", Publisher: "p.es", UserKey: "u",
			Timestamp: at.Add(time.Duration(i) * time.Minute), DataCenter: verdict, Clicks: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if code := getJSON(t, base+"/api/summary?campaign=camp-b", &sum); code != 200 {
		t.Fatalf("status %d", code)
	}
	if sum.Clicks != 6 || sum.DataCenterShare != 1.0/3 || sum.Users != 1 || sum.Conversions != 0 {
		t.Fatalf("camp-b summary = %+v, want 6 clicks, data-center share 1/3, 1 user, 0 conversions", sum)
	}
}

func TestAPISummaryErrors(t *testing.T) {
	_, _, base := queryFixture(t)
	var sum CampaignSummary
	if code := getJSON(t, base+"/api/summary", &sum); code != http.StatusBadRequest {
		t.Fatalf("missing param status %d", code)
	}
	if code := getJSON(t, base+"/api/summary?campaign=nope", &sum); code != http.StatusNotFound {
		t.Fatalf("unknown campaign status %d", code)
	}
}

func TestAPIPublishers(t *testing.T) {
	_, _, base := queryFixture(t)
	var rows []PublisherRow
	if code := getJSON(t, base+"/api/publishers?campaign=camp-a&limit=3", &rows); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Impressions > rows[i-1].Impressions {
			t.Fatal("rows not sorted")
		}
	}
	if code := getJSON(t, base+"/api/publishers?campaign=camp-a&limit=0", &rows); code != http.StatusBadRequest {
		t.Fatalf("bad limit status %d", code)
	}
	if code := getJSON(t, base+"/api/publishers", &rows); code != http.StatusBadRequest {
		t.Fatalf("missing campaign status %d", code)
	}
}

func TestAPIPublishersErrors(t *testing.T) {
	_, _, base := queryFixture(t)
	var rows []PublisherRow
	if code := getJSON(t, base+"/api/publishers?campaign=nope", &rows); code != http.StatusNotFound {
		t.Fatalf("unknown campaign status %d", code)
	}
	for _, limit := range []string{"abc", "-3", "10001"} {
		if code := getJSON(t, base+"/api/publishers?campaign=camp-a&limit="+limit, &rows); code != http.StatusBadRequest {
			t.Fatalf("limit=%s status %d, want 400", limit, code)
		}
	}
}

func TestAPITimeseriesBadBucketSyntax(t *testing.T) {
	_, _, base := queryFixture(t)
	var points []TimeseriesPoint
	for _, bucket := range []string{"xyz", "-1h", "30d", "0"} {
		if code := getJSON(t, base+"/api/timeseries?campaign=camp-a&bucket="+bucket, &points); code != http.StatusBadRequest {
			t.Fatalf("bucket=%s status %d, want 400", bucket, code)
		}
	}
}

func TestAPIRejectsNonGET(t *testing.T) {
	_, _, base := queryFixture(t)
	for _, path := range []string{"/api/campaigns", "/api/summary", "/api/publishers", "/api/timeseries"} {
		resp, err := http.Post(base+path, "text/plain", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s POST status = %d", path, resp.StatusCode)
		}
	}
}

func TestAPITimeseries(t *testing.T) {
	_, _, base := queryFixture(t)
	var points []TimeseriesPoint
	if code := getJSON(t, base+"/api/timeseries?campaign=camp-a&bucket=10m", &points); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(points) == 0 {
		t.Fatal("no buckets")
	}
	total := 0
	for i, p := range points {
		total += p.Impressions
		if i > 0 && !points[i-1].Start.Before(p.Start) {
			t.Fatal("buckets not sorted")
		}
	}
	if total != 30 {
		t.Fatalf("bucketed %d impressions, want 30", total)
	}
	// Default bucket (1h) covers the 30-minute fixture in one bucket.
	if code := getJSON(t, base+"/api/timeseries?campaign=camp-a", &points); code != 200 {
		t.Fatalf("default bucket status %d", code)
	}
	if code := getJSON(t, base+"/api/timeseries?campaign=camp-a&bucket=1s", &points); code != 400 {
		t.Fatalf("tiny bucket status %d", code)
	}
	if code := getJSON(t, base+"/api/timeseries?campaign=nope", &points); code != 404 {
		t.Fatalf("unknown campaign status %d", code)
	}
	if code := getJSON(t, base+"/api/timeseries", &points); code != 400 {
		t.Fatalf("missing campaign status %d", code)
	}
}

// The campaign listing reads each campaign's length off the index: what
// one request allocates must not depend on how many rows the store
// holds. Copying a campaign out to take its len is also one allocation
// per campaign, whatever its size, so the bytes are what tell.
func TestAPICampaignsCostIndependentOfStoreSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	cost := func(rows int) (allocs float64, bytes uint64) {
		st := store.New()
		for i := 0; i < rows; i++ {
			if _, err := st.Insert(store.Impression{
				CampaignID: fmt.Sprintf("camp-%d", i%3),
				Publisher:  "pub.es",
				UserKey:    "u",
				Timestamp:  time.Unix(int64(i+1), 0),
			}); err != nil {
				t.Fatal(err)
			}
		}
		q := &queryAPI{st: st}
		req := httptest.NewRequest(http.MethodGet, "/api/campaigns", nil)
		call := func() {
			rec := httptest.NewRecorder()
			q.handleCampaigns(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d", rec.Code)
			}
		}
		const runs = 20
		allocs = testing.AllocsPerRun(runs, call)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			call()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	smallAllocs, smallBytes := cost(1_000)
	largeAllocs, largeBytes := cost(20_000)
	if largeAllocs > smallAllocs {
		t.Errorf("GET /api/campaigns: %.0f allocs at 20,000 rows, %.0f at 1,000", largeAllocs, smallAllocs)
	}
	// The same three-row response either way; 1 KiB of slack for the
	// longer counts and the encoder's pooled buffers.
	if largeBytes > smallBytes+1024 {
		t.Errorf("GET /api/campaigns: %d B per request at 20,000 rows, %d B at 1,000", largeBytes, smallBytes)
	}
}
