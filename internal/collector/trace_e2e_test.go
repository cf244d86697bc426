package collector

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adaudit/internal/audit"
	"adaudit/internal/beacon"
	"adaudit/internal/ipmeta"
	"adaudit/internal/publisher"
	"adaudit/internal/store"
	"adaudit/internal/streamaudit"
	"adaudit/internal/telemetry"
	"adaudit/internal/trace"
)

// tracedTestServer assembles the full traced pipeline: a WAL-backed
// store, a sample-everything tracer, the collector, a streaming-audit
// engine, and the HTTP server with the flight-recorder API mounted.
func tracedTestServer(t *testing.T) (*Server, *trace.Tracer, *streamaudit.Engine) {
	t.Helper()
	st := store.New()
	wal, err := store.OpenWAL(filepath.Join(t.TempDir(), "wal.jsonl"), store.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wal.Close() })
	st.AttachWAL(wal)
	uni, err := ipmeta.NewUniverse(ipmeta.UniverseConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tracer := trace.NewTracer(trace.NewRecorder(64), 1)
	c, err := New(Config{
		Store:      st,
		IPDB:       uni.DB,
		Classifier: &ipmeta.Classifier{DB: uni.DB, DenyList: uni.DenyList, ManualVerify: uni.ManualVerify},
		Anonymizer: ipmeta.NewAnonymizer([]byte("test-secret")),
		Tracer:     tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	pubs, err := publisher.NewUniverse(publisher.Config{Seed: 5, NumPublishers: 60})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := streamaudit.New(streamaudit.Config{
		Store:     st,
		Meta:      audit.UniverseMetadata{Universe: pubs},
		Telemetry: c.Telemetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return serve(t, c, WithLiveAudit(eng)), tracer, eng
}

// TestTraceEndToEnd is the tentpole acceptance test: one sampled
// impression sent over a real WebSocket produces one causal trace
// spanning beacon_send → wire_recv → decode → enrich → wal_append →
// commit → feed_publish → stream_apply, retrievable with per-stage
// offsets from /api/trace/{id}.
func TestTraceEndToEnd(t *testing.T) {
	srv, tracer, eng := tracedTestServer(t)
	base := fmt.Sprintf("http://%s", srv.Addr())

	client := &beacon.Client{CollectorURL: srv.BeaconURL(), Tracer: tracer}
	p := beacon.Payload{
		CampaignID: "Football-010",
		CreativeID: "cr1",
		PageURL:    "http://futbolhoy999.es/cronica",
		UserAgent:  "Mozilla/5.0 Chrome/49.0",
		Nonce:      beacon.NewNonce(),
	}
	ctx := context.Background()
	sess, err := client.Open(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.SendEvent(beacon.Event{Kind: beacon.EventClick, At: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	// The trace finishes when the engine applies the feed event; poll
	// the flight recorder for the completed trace.
	var snap trace.Snapshot
	deadline := time.Now().Add(5 * time.Second)
	for {
		if !eng.WaitCaughtUp(time.Second) && time.Now().After(deadline) {
			t.Fatal("engine never caught up")
		}
		var recent struct {
			Traces []trace.Snapshot `json:"traces"`
		}
		mustGetJSON(t, base+"/api/trace/recent", &recent)
		if len(recent.Traces) > 0 && recent.Traces[0].Done {
			snap = recent.Traces[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no finished trace in flight recorder (got %+v)", recent)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Fetch it again by ID — the operator's drill-down path.
	var byID trace.Snapshot
	mustGetJSON(t, base+"/api/trace/"+snap.IDHex, &byID)
	if byID.IDHex != snap.IDHex {
		t.Fatalf("trace by id returned %q, want %q", byID.IDHex, snap.IDHex)
	}
	if byID.Truncated != "" {
		t.Fatalf("trace unexpectedly truncated: %q", byID.Truncated)
	}

	want := []string{
		trace.StageBeaconSend, trace.StageWireRecv, trace.StageDecode,
		trace.StageEnrich, trace.StageWAL, trace.StageCommit,
		trace.StageFeed, trace.StageApply,
	}
	if len(byID.Stages) != len(want) {
		t.Fatalf("trace has %d stages %v, want %d", len(byID.Stages), stageNames(byID), len(want))
	}
	prev := time.Duration(-1)
	for i, st := range byID.Stages {
		if st.Name != want[i] {
			t.Fatalf("stage %d = %q, want %q (all: %v)", i, st.Name, want[i], stageNames(byID))
		}
		// Stamps are appended in causal order; within-pipeline offsets
		// must never decrease. (beacon_send/wire_recv come from the
		// adopted wall-clock context and are clamped non-negative.)
		if st.Offset < prev && i > 2 {
			t.Fatalf("stage %q offset %v went backwards from %v", st.Name, st.Offset, prev)
		}
		prev = st.Offset
	}
	if byID.Nonce == "" || byID.Campaign != "Football-010" {
		t.Fatalf("trace annotations missing: nonce=%q campaign=%q", byID.Nonce, byID.Campaign)
	}

	// The Chrome/Perfetto export must include the trace as a complete
	// slice sequence.
	resp, err := http.Get(base + "/api/trace/export")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &chrome); err != nil {
		t.Fatalf("export is not JSON: %v\n%s", err, body)
	}
	if len(chrome.TraceEvents) < len(want) {
		t.Fatalf("export has %d events, want >= %d", len(chrome.TraceEvents), len(want))
	}

	// The freshness SLO histogram observed the commit→apply hop, and
	// the insert-latency histogram carries the trace as its exemplar.
	metrics := getText(t, base+"/metrics")
	if !strings.Contains(metrics, "adaudit_pipeline_commit_to_apply_seconds") {
		t.Fatal("metrics missing adaudit_pipeline_commit_to_apply_seconds")
	}
	if !strings.Contains(metrics, "# EXEMPLAR") || !strings.Contains(metrics, "trace_id=") {
		t.Fatal("metrics missing histogram exemplar annotation")
	}
}

// TestHealthzPipelineChecks exercises the new /healthz surface: feed
// drops, WAL sync lag and audit staleness appear with the built-in
// checks passing on a healthy pipeline.
func TestHealthzPipelineChecks(t *testing.T) {
	srv, _, eng := tracedTestServer(t)
	base := fmt.Sprintf("http://%s", srv.Addr())
	if !eng.WaitCaughtUp(5 * time.Second) {
		t.Fatal("engine did not catch up")
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("healthz = %d: %s", resp.StatusCode, body)
	}
	var st telemetry.Health
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if drops := st.Checks["feed_subscribers"].Value; drops != 0 {
		t.Fatalf("feed drops = %v, want 0", drops)
	}
	if stale := st.Checks["audit_freshness"]; stale.Value < 0 || stale.Limit != 30 {
		t.Fatalf("audit_freshness = %+v, want a staleness >= 0 under the 30 s bound", stale)
	}
	for _, check := range []string{"feed_subscribers", "wal_sync", "audit_freshness"} {
		if got := st.Checks[check]; got.Status != "ok" {
			t.Fatalf("check %q = %+v, want ok (all: %v)", check, got, st.Checks)
		}
	}
	if st.Status != "ok" || st.Tier != "collector" {
		t.Fatalf("healthz = %+v, want an ok collector", st)
	}
}

func stageNames(s trace.Snapshot) []string {
	out := make([]string, len(s.Stages))
	for i, st := range s.Stages {
		out[i] = st.Name
	}
	return out
}

// mustGetJSON wraps queryapi_test's getJSON, failing on any non-200.
func mustGetJSON(t *testing.T, url string, v any) {
	t.Helper()
	if code := getJSON(t, url, v); code != http.StatusOK {
		t.Fatalf("GET %s = %d", url, code)
	}
}

func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return string(body)
}
