package collector

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"adaudit/internal/audit"
	"adaudit/internal/publisher"
	"adaudit/internal/store"
	"adaudit/internal/streamaudit"
)

// liveTestServer spins up a collector server with the streaming-audit
// endpoints mounted over a fresh store and a synthetic publisher
// universe.
func liveTestServer(t *testing.T) (*Server, *store.Store, *streamaudit.Engine, context.CancelFunc, chan struct{}) {
	t.Helper()
	c, st := testCollector(t)
	uni, err := publisher.NewUniverse(publisher.Config{Seed: 5, NumPublishers: 60})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := streamaudit.New(streamaudit.Config{
		Store: st,
		Meta:  audit.UniverseMetadata{Universe: uni},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(c, "127.0.0.1:0", WithLiveAudit(eng))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return srv, st, eng, cancel, done
}

func liveInsert(t *testing.T, st *store.Store, campaign, pub, user string) {
	t.Helper()
	if _, err := st.Insert(store.Impression{
		CampaignID:  campaign,
		Publisher:   pub,
		UserKey:     user,
		IPPseudonym: "ip-" + user,
		Timestamp:   time.Unix(1700000000, 0),
		Exposure:    1500 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestLiveEndpoints(t *testing.T) {
	srv, st, eng, _, _ := liveTestServer(t)
	base := fmt.Sprintf("http://%s", srv.Addr())

	liveInsert(t, st, "Football-010", "futbolhoy483.es", "u1")
	liveInsert(t, st, "Football-010", "futbolhoy483.es", "u2")
	liveInsert(t, st, "Psoriasis-005", "healthsite1.com", "u1")
	if !eng.WaitCaughtUp(5 * time.Second) {
		t.Fatalf("engine did not catch up")
	}

	resp, err := http.Get(base + "/api/live/summary")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/api/live/summary status = %d", resp.StatusCode)
	}
	var sums []streamaudit.CampaignLive
	if err := json.NewDecoder(resp.Body).Decode(&sums); err != nil {
		t.Fatalf("decoding summary: %v", err)
	}
	if len(sums) != 2 {
		t.Fatalf("got %d campaigns, want 2", len(sums))
	}
	if sums[0].CampaignID != "Football-010" || sums[0].Impressions != 2 {
		t.Fatalf("unexpected first summary: %+v", sums[0])
	}

	resp, err = http.Get(base + "/api/live/audit/Football-010")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/api/live/audit status = %d", resp.StatusCode)
	}
	var la streamaudit.LiveAudit
	if err := json.NewDecoder(resp.Body).Decode(&la); err != nil {
		t.Fatalf("decoding live audit: %v", err)
	}
	if la.Summary.CampaignID != "Football-010" || la.Audit.ID != "Football-010" {
		t.Fatalf("unexpected live audit: %+v", la.Summary)
	}
	if la.Audit.Viewability.Impressions != 2 || la.Audit.Viewability.ViewableUB != 2 {
		t.Fatalf("unexpected viewability: %+v", la.Audit.Viewability)
	}

	for path, want := range map[string]int{
		"/api/live/audit/No-Such-Campaign": http.StatusNotFound,
		"/api/live/audit/":                 http.StatusBadRequest,
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s status = %d, want %d", path, resp.StatusCode, want)
		}
	}

	// The export is the engine's container, raw.
	resp, err = http.Get(base + "/api/live/export")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	bin, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var exp streamaudit.Export
	if err := exp.UnmarshalBinary(bin); err != nil || resp.Header.Get("Content-Type") != "application/octet-stream" {
		t.Fatalf("/api/live/export served %q: %v", resp.Header.Get("Content-Type"), err)
	}
	if states, _ := exp.States(); len(states) != 2 || states["Football-010"].Len() != 2 {
		t.Fatalf("/api/live/export holds %d campaigns", len(states))
	}

	for _, path := range []string{"/api/live/summary", "/api/live/audit/Football-010", "/api/live/stream", "/api/live/export"} {
		resp, err := http.Post(base+path, "text/plain", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s status = %d, want 405", path, resp.StatusCode)
		}
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

// readSSE parses events from an SSE stream until the channel is closed
// on EOF/error.
func readSSE(r io.Reader) <-chan sseEvent {
	ch := make(chan sseEvent, 16)
	go func() {
		defer close(ch)
		sc := bufio.NewScanner(r)
		var ev sseEvent
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if ev.name != "" || ev.data != "" {
					ch <- ev
				}
				ev = sseEvent{}
			case strings.HasPrefix(line, "event: "):
				ev.name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ev.data = strings.TrimPrefix(line, "data: ")
			}
		}
	}()
	return ch
}

func waitSSE(t *testing.T, ch <-chan sseEvent, want string) sseEvent {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatalf("SSE stream closed while waiting for %q event", want)
			}
			if ev.name == want {
				return ev
			}
		case <-deadline:
			t.Fatalf("timed out waiting for %q event", want)
		}
	}
}

func TestLiveStreamDeliversUpdates(t *testing.T) {
	srv, st, eng, _, _ := liveTestServer(t)
	base := fmt.Sprintf("http://%s", srv.Addr())

	liveInsert(t, st, "Football-010", "futbolhoy483.es", "u1")
	if !eng.WaitCaughtUp(5 * time.Second) {
		t.Fatalf("engine did not catch up")
	}

	resp, err := http.Get(base + "/api/live/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	events := readSSE(resp.Body)

	snap := waitSSE(t, events, "snapshot")
	var sums []streamaudit.CampaignLive
	if err := json.Unmarshal([]byte(snap.data), &sums); err != nil {
		t.Fatalf("snapshot payload: %v", err)
	}
	if len(sums) != 1 || sums[0].CampaignID != "Football-010" {
		t.Fatalf("unexpected snapshot: %s", snap.data)
	}

	liveInsert(t, st, "Psoriasis-005", "healthsite1.com", "u2")
	upd := waitSSE(t, events, "summary")
	if !strings.Contains(upd.data, "Psoriasis-005") {
		t.Fatalf("summary update missing new campaign: %s", upd.data)
	}
}

// TestShutdownDrainsSSESubscribers is the regression test for the
// graceful-shutdown bug: a long-lived SSE stream must be closed by the
// server's teardown (with a final shutdown event), not pin
// http.Server.Shutdown until its 5 s timeout expires.
func TestShutdownDrainsSSESubscribers(t *testing.T) {
	srv, st, eng, cancel, done := liveTestServer(t)
	base := fmt.Sprintf("http://%s", srv.Addr())

	liveInsert(t, st, "Football-010", "futbolhoy483.es", "u1")
	if !eng.WaitCaughtUp(5 * time.Second) {
		t.Fatalf("engine did not catch up")
	}

	resp, err := http.Get(base + "/api/live/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(resp.Body)
	waitSSE(t, events, "snapshot")

	start := time.Now()
	cancel()
	select {
	case <-done:
	case <-time.After(4 * time.Second):
		t.Fatalf("Serve did not return; SSE stream pinned shutdown")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("shutdown took %v; SSE subscribers were not drained promptly", elapsed)
	}

	// The client saw a clean shutdown event, then EOF.
	sawShutdown := false
	for ev := range events {
		if ev.name == "shutdown" {
			sawShutdown = true
		}
	}
	if !sawShutdown {
		t.Fatalf("SSE client never received the shutdown event")
	}

	// New streams are refused once shutdown began.
	if _, err := http.Get(base + "/api/live/stream"); err == nil {
		t.Logf("post-shutdown stream unexpectedly accepted (listener race); tolerated")
	}
}
