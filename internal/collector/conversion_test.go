package collector

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"testing"
	"time"

	"adaudit/internal/beacon"
)

func TestIngestConversion(t *testing.T) {
	c, st := testCollector(t)
	id, err := c.IngestConversion(ConversionObservation{
		Conversion: beacon.Conversion{CampaignID: "c", Action: "purchase", ValueCents: 900},
		RemoteIP:   netip.MustParseAddr("10.0.0.7"),
		UserAgent:  "Mozilla/5.0 Chrome/49.0",
		At:         time.Date(2016, 3, 29, 15, 0, 0, 0, time.UTC),
	})
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 || st.NumConversions() != 1 {
		t.Fatalf("id=%d num=%d", id, st.NumConversions())
	}
	conv := st.Conversions("c")[0]
	if conv.ValueCents != 900 || conv.Action != "purchase" {
		t.Fatalf("conversion = %+v", conv)
	}
	// Identity matches the impression path: same IP+UA yields the same
	// user key, so exposures and conversions join.
	obs := testObservation(t, c)
	obs.Payload.UserAgent = "Mozilla/5.0 Chrome/49.0"
	impID, err := c.Ingest(obs)
	if err != nil {
		t.Fatal(err)
	}
	im, _ := st.Get(impID)
	if im.UserKey != conv.UserKey {
		t.Fatalf("user keys diverge: %q vs %q", im.UserKey, conv.UserKey)
	}
	if c.Metrics.Conversions.Load() != 1 {
		t.Fatalf("conversions metric = %d", c.Metrics.Conversions.Load())
	}
}

func TestIngestConversionValidates(t *testing.T) {
	c, _ := testCollector(t)
	_, err := c.IngestConversion(ConversionObservation{
		Conversion: beacon.Conversion{},
		RemoteIP:   netip.MustParseAddr("10.0.0.7"),
		At:         time.Now(),
	})
	if err == nil {
		t.Fatal("invalid conversion accepted")
	}
}

func TestConversionPixelEndToEnd(t *testing.T) {
	c, st := testCollector(t)
	srv := serve(t, c)
	ctx := context.Background()

	conv := beacon.Conversion{CampaignID: "spring", Action: "purchase", ValueCents: 12999}
	url := fmt.Sprintf("http://%s/conv?%s", srv.Addr(), conv.EncodeQuery())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	req.Header.Set("User-Agent", "Mozilla/5.0 Chrome/49.0")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if resp.Header.Get("Content-Type") != "image/gif" || len(body) == 0 {
		t.Fatalf("not a pixel response: %s %d bytes", resp.Header.Get("Content-Type"), len(body))
	}
	if st.NumConversions() != 1 {
		t.Fatalf("stored %d conversions", st.NumConversions())
	}
	got := st.Conversions("spring")[0]
	if got.ValueCents != 12999 || got.UserKey == "" {
		t.Fatalf("conversion = %+v", got)
	}
}

func TestConversionPixelToleratesGarbage(t *testing.T) {
	c, st := testCollector(t)
	srv := serve(t, c)

	// Garbage query: still answers with the pixel (broken images on
	// the advertiser's page would leak the measurement), stores nothing.
	resp, err := http.Get(fmt.Sprintf("http://%s/conv?nonsense=1", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if st.NumConversions() != 0 {
		t.Fatal("garbage conversion stored")
	}
	if c.Metrics.Rejected.Load() == 0 {
		t.Fatal("rejection not counted")
	}

	// POST is refused outright.
	resp, err = http.Post(fmt.Sprintf("http://%s/conv", srv.Addr()), "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d", resp.StatusCode)
	}
}
