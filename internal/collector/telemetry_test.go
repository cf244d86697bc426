package collector

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/daemon"
	"adaudit/internal/telemetry"
)

func httpGetBody(ctx context.Context, url string) (int, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body), err
}

var promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)

// parsePromText parses the exposition into series-key → value, failing
// the test on any malformed line.
func parsePromText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed Prometheus sample line %q", line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[m[1]+m[2]] = v
	}
	return out
}

// TestMetricsEndpointAfterWebSocketTraffic drives a real beacon session
// and checks /metrics exposes the registered series with consistent
// values and monotone histogram buckets.
func TestMetricsEndpointAfterWebSocketTraffic(t *testing.T) {
	c, _ := testCollector(t)
	srv, err := NewServer(c, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.Serve(ctx)

	client := &beacon.Client{CollectorURL: srv.BeaconURL()}
	p := beacon.Payload{
		CampaignID: "Metrics-010",
		CreativeID: "cr1",
		PageURL:    "http://metricas123.es/nota",
		UserAgent:  "Mozilla/5.0 Chrome/49.0",
	}
	if err := client.Report(ctx, p, 30*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for c.Metrics.Ingested.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if c.Metrics.Ingested.Load() == 0 {
		t.Fatal("impression never committed")
	}

	status, body, err := httpGetBody(ctx, "http://"+srv.Addr().String()+"/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if status != 200 {
		t.Fatalf("GET /metrics status = %d", status)
	}
	samples := parsePromText(t, body)
	if got := samples["adaudit_collector_ingested_total"]; got != 1 {
		t.Fatalf("ingested series = %v, want 1\n%s", got, body)
	}
	if got := samples["adaudit_collector_connections_total"]; got != 1 {
		t.Fatalf("connections series = %v, want 1", got)
	}
	if _, ok := samples["adaudit_collector_sessions_active"]; !ok {
		t.Fatalf("sessions gauge missing:\n%s", body)
	}
	if got := samples[`adaudit_collector_sessions_closed_total{reason="peer-close"}`]; got != 1 {
		t.Fatalf("close-reason series = %v, want 1\n%s", got, body)
	}
	if got := samples["adaudit_store_inserts_total"]; got != 1 {
		t.Fatalf("store inserts series = %v, want 1", got)
	}
	if got := samples["adaudit_collector_exposure_seconds_count"]; got != 1 {
		t.Fatalf("exposure histogram count = %v, want 1", got)
	}
	// Per-stage latency histograms recorded the session's work.
	for _, h := range []string{
		"adaudit_collector_upgrade_seconds_count",
		"adaudit_collector_decode_seconds_count",
		"adaudit_collector_enrich_seconds_count",
		"adaudit_store_insert_seconds_count",
	} {
		if samples[h] < 1 {
			t.Fatalf("stage histogram %s = %v, want >= 1\n%s", h, samples[h], body)
		}
	}
	// Histogram bucket series are cumulative, hence monotone in le.
	checkBucketsMonotone(t, body, "adaudit_store_insert_seconds_bucket")
	checkBucketsMonotone(t, body, "adaudit_collector_exposure_seconds_bucket")
}

// checkBucketsMonotone asserts the cumulative bucket counts of one
// histogram family never decrease as le grows (file order is ascending).
func checkBucketsMonotone(t *testing.T, text, family string) {
	t.Helper()
	prev := -1.0
	n := 0
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, family+"{") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v < prev {
			t.Fatalf("%s buckets not monotone at %q", family, line)
		}
		prev = v
		n++
	}
	if n == 0 {
		t.Fatalf("no bucket series for %s", family)
	}
}

func TestJSONMetricsEndpoint(t *testing.T) {
	c, _ := testCollector(t)
	srv, err := NewServer(c, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.Serve(ctx)

	if _, err := c.Ingest(testObservation(t, c)); err != nil {
		t.Fatal(err)
	}
	status, body, err := httpGetBody(ctx, "http://"+srv.Addr().String()+"/api/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if status != 200 {
		t.Fatalf("GET /api/metrics status = %d", status)
	}
	var out map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("JSON metrics do not parse: %v", err)
	}
	var ingested float64
	if err := json.Unmarshal(out["adaudit_collector_ingested_total"], &ingested); err != nil || ingested != 1 {
		t.Fatalf("ingested = %v (err %v)", ingested, err)
	}
	var hist struct {
		Count uint64  `json:"count"`
		P99   float64 `json:"p99"`
	}
	if err := json.Unmarshal(out["adaudit_store_insert_seconds"], &hist); err != nil {
		t.Fatal(err)
	}
	if hist.Count != 1 {
		t.Fatalf("insert histogram count = %d", hist.Count)
	}
}

// TestHealthzFlipsOnIngestAge: a collector expected to receive traffic
// goes unhealthy when the last-ingest age passes the threshold, and
// recovers as soon as a record commits.
func TestHealthzFlipsOnIngestAge(t *testing.T) {
	c, _ := testCollector(t)
	srv, err := NewServer(c, "127.0.0.1:0", WithMaxIngestAge(80*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.Serve(ctx)

	url := "http://" + srv.Addr().String() + "/healthz"
	status, body, err := httpGetBody(ctx, url)
	if err != nil {
		t.Fatal(err)
	}
	if status != 200 {
		t.Fatalf("fresh server unhealthy: %d %s", status, body)
	}

	time.Sleep(150 * time.Millisecond)
	status, body, err = httpGetBody(ctx, url)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusServiceUnavailable {
		t.Fatalf("idle server still healthy: %d %s", status, body)
	}
	var hs telemetry.Health
	if err := json.Unmarshal([]byte(body), &hs); err != nil {
		t.Fatal(err)
	}
	// A failing status names the check that failed it.
	if age := hs.Checks["ingest_age"]; hs.Status != "unhealthy" || age.Status != "unhealthy" ||
		age.Limit != 0.08 || age.Value <= age.Limit {
		t.Fatalf("health body = %+v", hs)
	}

	if _, err := c.Ingest(testObservation(t, c)); err != nil {
		t.Fatal(err)
	}
	status, body, err = httpGetBody(ctx, url)
	if err != nil {
		t.Fatal(err)
	}
	if status != 200 {
		t.Fatalf("server did not recover after ingest: %d %s", status, body)
	}
}

func TestHealthzCustomCheck(t *testing.T) {
	c, _ := testCollector(t)
	healthy := true
	srv, err := NewServer(c, "127.0.0.1:0", WithHealthCheck("snapshot-dir", func() error {
		if healthy {
			return nil
		}
		return io.ErrClosedPipe
	}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.Serve(ctx)

	url := "http://" + srv.Addr().String() + "/healthz"
	if status, body, _ := httpGetBody(ctx, url); status != 200 {
		t.Fatalf("healthy check reported %d %s", status, body)
	}
	healthy = false
	status, body, err := httpGetBody(ctx, url)
	if err != nil {
		t.Fatal(err)
	}
	var hs telemetry.Health
	if err := json.Unmarshal([]byte(body), &hs); err != nil {
		t.Fatal(err)
	}
	if check := hs.Checks["snapshot-dir"]; status != http.StatusServiceUnavailable || hs.Status != "unhealthy" ||
		check.Status != "unhealthy" || check.Detail != io.ErrClosedPipe.Error() {
		t.Fatalf("failing check reported %d %s", status, body)
	}
}

// TestShutdownDrainsOpenSessions: a session still streaming when the
// server shuts down has its impression committed (not lost), counted
// under the "drain" close reason.
func TestShutdownDrainsOpenSessions(t *testing.T) {
	c, st := testCollector(t)
	srv, err := NewServer(c, "127.0.0.1:0", daemon.WithDrainGrace(3*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ctx)
	}()

	client := &beacon.Client{CollectorURL: srv.BeaconURL()}
	p := beacon.Payload{
		CampaignID: "Drain-010",
		CreativeID: "cr1",
		PageURL:    "http://drenaje456.es/p",
		UserAgent:  "Mozilla/5.0 Chrome/49.0",
	}
	sess, err := client.Open(ctx, p)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	defer sess.Close()

	// Wait until the server has decoded the payload (the session is past
	// its handshake), then shut down with the connection still open.
	deadline := time.Now().Add(3 * time.Second)
	for c.tel.decode.Snapshot().Count == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if c.tel.decode.Snapshot().Count == 0 {
		cancel()
		t.Fatal("session never decoded its payload")
	}
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}

	if st.Len() != 1 {
		t.Fatalf("store has %d records after drain, want 1", st.Len())
	}
	im, _ := st.Get(1)
	if im.CampaignID != "Drain-010" {
		t.Fatalf("drained record = %+v", im)
	}
	reg := c.Telemetry()
	if s, ok := reg.Find("adaudit_collector_sessions_closed_total", map[string]string{"reason": beacon.EndDrain}); !ok || s.Value != 1 {
		t.Fatalf("drain close reason = %+v ok=%v, want 1", s, ok)
	}
	if s, _ := reg.Find("adaudit_collector_sessions_dropped_shutdown_total", nil); s.Value != 0 {
		t.Fatalf("dropped-on-shutdown = %v, want 0", s.Value)
	}
}

// TestRejectClassesSplit: decode failures and store-insert failures land
// in distinct labelled series while the legacy aggregate still counts
// both.
func TestRejectClassesSplit(t *testing.T) {
	c, _ := testCollector(t)
	obs := testObservation(t, c)
	obs.Payload.PageURL = "garbage" // Publisher() fails → payload class
	if _, err := c.Ingest(obs); err == nil {
		t.Fatal("bad page URL accepted")
	}
	obs = testObservation(t, c)
	obs.Payload.CampaignID = "" // store validation fails → insert class
	if _, err := c.Ingest(obs); err == nil {
		t.Fatal("missing campaign accepted")
	}
	reg := c.Telemetry()
	if s, ok := reg.Find("adaudit_collector_rejects_total", map[string]string{"class": RejectPayload}); !ok || s.Value != 1 {
		t.Fatalf("payload reject series = %+v ok=%v", s, ok)
	}
	if s, ok := reg.Find("adaudit_collector_rejects_total", map[string]string{"class": RejectInsert}); !ok || s.Value != 1 {
		t.Fatalf("insert reject series = %+v ok=%v", s, ok)
	}
	if got := c.Metrics.Rejected.Load(); got != 2 {
		t.Fatalf("legacy rejected total = %d, want 2", got)
	}
	if s, _ := reg.Find("adaudit_store_insert_failures_total", nil); s.Value != 1 {
		t.Fatalf("store insert failures = %v, want 1", s.Value)
	}
}

// TestDisableTelemetry: the Metrics field API keeps working with
// instrumentation off, and no registry is exposed.
func TestDisableTelemetry(t *testing.T) {
	c, _ := testCollector(t)
	c2, err := New(Config{
		Store:            c.cfg.Store,
		Anonymizer:       c.cfg.Anonymizer,
		DisableTelemetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c2.Telemetry() != nil {
		t.Fatal("disabled collector still has a registry")
	}
	if _, err := c2.Ingest(testObservation(t, c2)); err != nil {
		t.Fatal(err)
	}
	if c2.Metrics.Ingested.Load() != 1 {
		t.Fatalf("ingested = %d with telemetry disabled", c2.Metrics.Ingested.Load())
	}
}
