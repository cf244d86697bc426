package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/collector/collectortest"
	"adaudit/internal/store"
	"adaudit/internal/tiertest"
)

// syncBuffer is a stderr the test can read while run is still writing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRunBadFlagsFailWithUsage groups its rows by the upstream count
// that makes the flags wrong: a one-upstream edge is a gateway, a
// two-upstream edge a router.
func TestRunBadFlagsFailWithUsage(t *testing.T) {
	const one, two = "ws://127.0.0.1:1/trunk", "ws://127.0.0.1:1/trunk,ws://127.0.0.1:2/trunk"
	type row struct {
		args []string
		says string
	}
	for _, group := range []struct {
		name string
		rows []row
	}{
		{"any upstreams", []row{
			{[]string{"-no-such-flag"}, "flag provided but not defined"},
			{[]string{}, "-upstream is required"},
		}},
		{"one upstream", []row{
			{[]string{"-upstream", one, "-log-level", "loud"}, "unknown log level"},
			{[]string{"-upstream", one, "-shard-api", "http://a"}, "-shard-api needs two or more upstreams"},
			{[]string{"-upstream", one, "-live-seed", "2"}, "-live-seed needs two or more upstreams"},
		}},
		{"two upstreams", []row{
			{[]string{"-upstream", two, "-log-level", "loud"}, "unknown log level"},
			{[]string{"-upstream", two, "-shard-api", "http://a"}, "-shard-api lists 1 bases for 2 upstreams"},
		}},
	} {
		t.Run(group.name, func(t *testing.T) {
			for _, tc := range group.rows {
				var stderr bytes.Buffer
				if err := run(context.Background(), tc.args, &stderr); err != errUsage {
					t.Errorf("run(%q) = %v, want errUsage", tc.args, err)
				}
				if out := stderr.String(); !strings.Contains(out, tc.says) || !strings.Contains(out, "Usage of adedge") {
					t.Errorf("run(%q) printed no %q and usage:\n%s", tc.args, tc.says, out)
				}
			}
		})
	}
	if err := run(context.Background(), []string{"-h"}, io.Discard); err != nil {
		t.Errorf("run(-h) = %v, want nil: asking for help is not a failure", err)
	}
}

// TestRunServesAndDrains is the command end to end against in-process
// collectors: beacons through the edge are stored, each exactly once,
// the tier it serves is the one its upstream count picks, and
// cancelling the context drains to spill_pending=0 and returns nil.
func TestRunServesAndDrains(t *testing.T) {
	for _, tc := range []struct {
		name       string
		collectors int
		chain      bool // the edge's one upstream is a second edge's /trunk
		tier       string
	}{
		{"one upstream", 1, false, "gateway"},
		{"two collectors", 2, false, "router"},
		{"gateway into router", 2, true, "gateway"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stores := make([]*store.Store, tc.collectors)
			var trunks []string
			for i := range stores {
				stores[i] = store.New()
				ln := collectortest.TCP(t, "127.0.0.1:0")
				collectortest.Serve(t, stores[i], ln, nil)
				trunks = append(trunks, "ws://"+ln.Addr().String()+"/trunk")
			}
			var behind *edgeRun
			if tc.chain {
				behind = startRun(t, trunks)
				trunks = []string{"ws://" + behind.addr.String() + "/trunk"}
			}
			front := startRun(t, trunks)

			// Fixed nonces make where each beacon lands deterministic; 16
			// of them reach both shards.
			const n = 16
			client := &beacon.Client{
				CollectorURL: "ws://" + front.addr.String() + "/beacon",
				MaxAttempts:  50, RetryBackoff: 20 * time.Millisecond, // until the listener is up
			}
			for i := 0; i < n; i++ {
				p := tiertest.Payload(i)
				p.Nonce = fmt.Sprintf("adedge-%02d", i)
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				err := client.Report(ctx, p, time.Millisecond)
				cancel()
				if err != nil {
					t.Fatalf("beacon %d through the command: %v\n%s", i, err, front.log)
				}
			}
			records := tiertest.Stored(stores...)
			// Report returns once its close is written, which can be before
			// the edge has read the session: the cancel below must interrupt
			// an idle command, not a half-read socket.
			tiertest.WaitFor(t, "every beacon to be stored", func() bool { return len(records()) >= n })

			front.wantTier(t, tc.tier)
			if behind != nil {
				behind.wantTier(t, "router")
			}
			front.drained(t, tc.tier)
			if behind != nil {
				behind.drained(t, "router")
			}

			seen := map[string]int{}
			for _, im := range records() {
				seen[im.Nonce]++
			}
			for i := 0; i < n; i++ {
				if nonce := fmt.Sprintf("adedge-%02d", i); seen[nonce] != 1 {
					t.Errorf("beacon %s stored %d times, want once", nonce, seen[nonce])
				}
			}
			if len(seen) != n {
				t.Errorf("stored %d distinct nonces, want %d", len(seen), n)
			}
			for i, st := range stores {
				if len(stores) > 1 && st.Len() == 0 {
					t.Errorf("shard %d stored nothing: the beacons were not spread", i)
				}
			}
		})
	}
}

// edgeRun is the command as a tiertest.Server: Serve runs it with args
// on addr, logging to log.
type edgeRun struct {
	addr net.Addr
	args []string
	log  *syncBuffer
	stop func() error
}

func (e *edgeRun) Serve(ctx context.Context) error { return run(ctx, e.args, e.log) }
func (e *edgeRun) Close() error                    { return nil }
func (e *edgeRun) Addr() net.Addr                  { return e.addr }

// startRun runs the command in front of upstreams on a free loopback
// port until the test ends, or until its stop.
func startRun(t *testing.T, upstreams []string) *edgeRun {
	ln := collectortest.TCP(t, "127.0.0.1:0")
	ln.Close()
	e := &edgeRun{addr: ln.Addr(), log: &syncBuffer{}, args: []string{
		"-listen", ln.Addr().String(),
		"-upstream", strings.Join(upstreams, ","),
		"-trunk-token", collectortest.TrunkToken,
		"-drain-grace", "5s",
	}}
	e.stop = tiertest.Serve(t, e)
	return e
}

// drained stops the command and requires a clean drain: run returns nil
// and logs the tier's last line with nothing left to spill.
func (e *edgeRun) drained(t *testing.T, tier string) {
	t.Helper()
	if err := e.stop(); err != nil {
		t.Errorf("run returned %v after cancel, want nil\n%s", err, e.log)
	}
	if !regexp.MustCompile(tier + ` stopped.* spill_pending=0`).MatchString(e.log.String()) {
		t.Errorf("no clean-drain line of a %s in the log:\n%s", tier, e.log)
	}
}

// wantTier requires the edge to serve as tier: that /healthz, the
// /api/metrics shape the tier's package pins in its golden (so the names
// of the tier's series, a router's per shard_id, and no other tier's),
// and /trunk exactly when it is a router.
func (e *edgeRun) wantTier(t *testing.T, tier string) {
	t.Helper()
	get := func(path string) (int, []byte) {
		resp, err := http.Get("http://" + e.addr.String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}
	var health struct{ Status, Tier string }
	tiertest.WaitFor(t, "every trunk to be up", func() bool {
		_, body := get("/healthz")
		return json.Unmarshal(body, &health) == nil && health.Status == "ok"
	})
	if health.Tier != tier {
		t.Errorf("/healthz serves tier %q, want %q", health.Tier, tier)
	}
	var metrics map[string]json.RawMessage
	if _, body := get("/api/metrics"); json.Unmarshal(body, &metrics) != nil {
		t.Fatalf("/api/metrics does not parse: %s", body)
	}
	var shape []string
	for key, v := range metrics {
		if strings.HasPrefix(key, "adaudit_router_relay_frames_total{") {
			continue // a series per frame type relayed: the golden's router relayed none
		}
		kind := "scalar"
		if bytes.HasPrefix(bytes.TrimSpace(v), []byte("{")) {
			kind = "histogram"
		}
		shape = append(shape, key+" "+kind+"\n")
	}
	sort.Strings(shape)
	golden := "../../internal/" + tier + "/testdata/golden/metrics_shape.txt"
	if want, err := os.ReadFile(golden); err != nil || strings.Join(shape, "") != string(want) {
		t.Errorf("/api/metrics shape differs from %s (%v):\n%s", golden, err, strings.Join(shape, ""))
	}
	if code, _ := get("/trunk"); (code != http.StatusNotFound) != (tier == "router") {
		t.Errorf("a %s answers GET /trunk with %d", tier, code)
	}
}
