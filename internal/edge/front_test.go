package edge

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"adaudit/internal/daemon"
	"adaudit/internal/faultnet"
	"adaudit/internal/wsproto"
	"adaudit/internal/wsproto/wstest"
)

// The tests here run a real Server, whose accepting front answers clean
// beacon upgrades itself, and hold everything it passes to net/http to
// what the handler alone (under httptest) does with the same bytes —
// once per tier, like everything in this package.

// upgrades reads the tier's upgrade counters.
func (f *fixture) upgrades() (inPlace, netHTTP int64) {
	return f.tel.Upgrades.With("in-place").Load(), f.tel.Upgrades.With("net-http").Load()
}

// TestFrontRefusalsAreTheHandlers: handshake errors, an origin refusal
// and a capacity shed come back from the real server as the bytes the
// handler alone produces, counted where they always were.
func TestFrontRefusalsAreTheHandlers(t *testing.T) {
	forEachTier(t, func(t *testing.T, name string, pools int) {
		f := startTier(t, name, pools, fixtureOptions{edge: func(cfg *Config) {
			cfg.AllowedOrigins = []string{"ads.example.com"}
			cfg.MaxSessions = 1
		}})
		ref, addr := wstest.HandlerAlone(t, &f.e.sessions), f.srv.Addr().String()
		allowed := "Origin: https://ads.example.com\r\n"

		cases := []struct{ name, raw, status, has, shed string }{
			{"post", wstest.Closing(strings.Replace(wstest.UpgradeHead(allowed), "GET", "POST", 1)), "405 Method Not Allowed", "method not GET", ""},
			{"short key", wstest.Closing(strings.Replace(wstest.UpgradeHead(allowed), wstest.Key, "AAAAAAAAAAAAAAAAAAAA", 1)), "400 Bad Request", "bad Sec-WebSocket-Key", ""},
			{"version 8", wstest.Closing(strings.Replace(wstest.UpgradeHead(allowed), "Version: 13", "Version: 8", 1)), "426 Upgrade Required", "Sec-Websocket-Version: 13\r\n", ""},
			{"foreign origin", wstest.Closing(wstest.UpgradeHead("Origin: https://evil.example.net\r\n")), "403 Forbidden", "origin not allowed", ShedOrigin},
			{"no origin", wstest.Closing(wstest.UpgradeHead("")), "403 Forbidden", "origin not allowed", ShedOrigin},
			{"empty origin before an allowed one", wstest.Closing(wstest.UpgradeHead("Origin:\r\n" + allowed)), "403 Forbidden", "origin not allowed", ShedOrigin},
		}
		for _, tc := range cases {
			var before int64
			if tc.shed != "" {
				before = f.tel.Sheds.With(tc.shed).Load()
			}
			got, want := wstest.Exchange(t, addr, tc.raw), wstest.Exchange(t, ref, tc.raw)
			if got != want {
				t.Errorf("%s: through the front\n%q\nfrom the handler alone\n%q", tc.name, got, want)
			}
			if !strings.HasPrefix(got, "HTTP/1.1 "+tc.status) || !strings.Contains(got, tc.has) {
				t.Errorf("%s: answer %q, want a %s mentioning %q", tc.name, got, tc.status, tc.has)
			}
			if tc.shed != "" {
				if counted := f.tel.Sheds.With(tc.shed).Load() - before; counted != 2 {
					t.Errorf("%s: sheds{%s} moved by %d over the two servers, want 2", tc.name, tc.shed, counted)
				}
			}
		}
		if in, via := f.upgrades(); in+via != 0 {
			t.Fatalf("upgrades: %d in place, %d through net/http; none was made", in, via)
		}

		// One admitted session fills the cap; the next clean upgrade is the
		// handler's to shed.
		d := &wsproto.Dialer{Header: http.Header{"Origin": {"https://ads.example.com"}}}
		conn, _, err := d.Dial(context.Background(), f.srv.BeaconURL())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close(wsproto.CloseNormal, "")
		waitFor(t, 2*time.Second, "the session to be tracked", func() bool { return f.e.sessions.Tracked() == 1 })
		if in, via := f.upgrades(); in != 1 || via != 0 {
			t.Fatalf("upgrades: %d in place, %d through net/http; want 1, 0", in, via)
		}
		before := f.tel.Sheds.With(ShedCapacity).Load()
		got, want := wstest.Exchange(t, addr, wstest.Closing(wstest.UpgradeHead(allowed))), wstest.Exchange(t, ref, wstest.Closing(wstest.UpgradeHead(allowed)))
		if got != want {
			t.Errorf("shed through the front\n%q\nfrom the handler alone\n%q", got, want)
		}
		if !strings.HasPrefix(got, "HTTP/1.1 503 Service Unavailable\r\n") || !strings.Contains(got, "\r\nRetry-After: 2\r\n") ||
			!strings.HasSuffix(got, name+" "+ShedCapacity+"\n") {
			t.Errorf("shed answer %q, want the tier's 503 with Retry-After", got)
		}
		if counted := f.tel.Sheds.With(ShedCapacity).Load() - before; counted != 2 {
			t.Errorf("sheds{capacity} moved by %d over the two servers, want 2", counted)
		}
	})
}

// TestFrontBothPathsCommit: a session commits through the trunk whether
// the front answers its handshake or — the head too long for the pooled
// buffer — net/http does, and the sidecar endpoints answer beside it.
func TestFrontBothPathsCommit(t *testing.T) {
	forEachTier(t, func(t *testing.T, name string, pools int) {
		f := startTier(t, name, pools, fixtureOptions{})
		f.waitTrunksUp()
		for i, extra := range []string{"Origin: http://pub0.es\r\n", "Cookie: " + strings.Repeat("c", 8<<10) + "\r\n"} {
			nc, err := net.Dial("tcp", f.srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			wire := wstest.Session(t, wstest.UpgradeHead(extra), testPayload(i).Encode())
			// One write: the payload rides in the handshake's segment.
			if _, err := nc.Write(wire); err != nil {
				t.Fatal(err)
			}
			_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
			if answer, err := bufio.NewReader(nc).ReadString('\n'); err != nil || answer != "HTTP/1.1 101 Switching Protocols\r\n" {
				t.Fatalf("session %d: status line %q, %v", i, answer, err)
			}
			waitFor(t, 5*time.Second, "the impression to land", func() bool { return f.stored() == i+1 })
			nc.Close()
			if in, via := f.upgrades(); in != 1 || via != int64(i) {
				t.Fatalf("after session %d: %d in place, %d through net/http; want 1, %d", i, in, via, i)
			}
		}
		if got := f.tel.Connections.Load(); got != 2 {
			t.Fatalf("connections = %d, want 2", got)
		}
		for _, path := range []string{"/healthz", "/metrics", "/api/metrics"} {
			resp, err := http.Get("http://" + f.srv.Addr().String() + path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || len(body) == 0 {
				t.Fatalf("GET %s: %d, %d bytes", path, resp.StatusCode, len(body))
			}
		}
	})
}

// TestUpgradeRacingDrain: while draining, a clean upgrade is the
// handler's to shed; one that was admitted just before the flag went up
// is handed back with the resumable 1012 close, whichever path upgraded
// it, and leaves nothing tracked.
func TestUpgradeRacingDrain(t *testing.T) {
	forEachTier(t, func(t *testing.T, name string, pools int) {
		f := startTier(t, name, pools, fixtureOptions{})
		// The flag goes up between admission and the session: the drain
		// begins as the upgrade takes the connection over.
		raced := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			f.e.sessions.ServeHTTP(drainOnHijack{w, f.e}, r)
		}))
		defer raced.Close()
		conn, _, err := (&wsproto.Dialer{}).Dial(context.Background(), "ws"+strings.TrimPrefix(raced.URL, "http"))
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		var ce *wsproto.CloseError
		if _, _, err := conn.ReadMessage(); !errors.As(err, &ce) || ce.Code != wsproto.CloseServiceRestart || ce.Reason != "draining retry-after=2s" {
			t.Fatalf("raced upgrade ended with %v, want the 1012 drain close", err)
		}
		waitFor(t, 2*time.Second, "the raced connection to be untracked", func() bool { return f.e.sessions.Tracked() == 0 })

		ref := wstest.HandlerAlone(t, &f.e.sessions)
		got, want := wstest.Exchange(t, f.srv.Addr().String(), wstest.Closing(wstest.UpgradeHead(""))), wstest.Exchange(t, ref, wstest.Closing(wstest.UpgradeHead("")))
		if got != want || !strings.HasSuffix(got, name+" "+ShedDraining+"\n") {
			t.Errorf("draining shed through the front\n%q\nfrom the handler alone\n%q", got, want)
		}
		if in, _ := f.upgrades(); in != 0 {
			t.Errorf("%d upgrades answered in place while draining", in)
		}
	})
}

// drainOnHijack begins the edge's drain when the upgrade hijacks the
// connection: after admission, before the session.
type drainOnHijack struct {
	http.ResponseWriter
	e *Edge
}

func (w drainOnHijack) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	w.e.sessions.Drain(0)
	return w.ResponseWriter.(http.Hijacker).Hijack()
}

// TestShutdownWithConnectionMidHead: a connection parked in its request
// head does not hold the drain up, and the listener is gone after it.
func TestShutdownWithConnectionMidHead(t *testing.T) {
	forEachTier(t, func(t *testing.T, name string, pools int) {
		f := startTier(t, name, pools, fixtureOptions{})
		f.waitTrunksUp()
		nc, err := net.Dial("tcp", f.srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		if _, err := io.WriteString(nc, "GET /beacon HTTP/1.1\r\nHost: ed"); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond) // let the front take it up
		start := time.Now()
		if err := f.srv.Close(); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took > 2*time.Second {
			t.Errorf("Close took %v with one connection mid-head", took)
		}
		_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := nc.Read(make([]byte, 1)); err == nil || errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("read %d, %v from the parked connection; want it closed", n, err)
		}
		if _, err := net.DialTimeout("tcp", f.srv.Addr().String(), time.Second); err == nil {
			t.Fatal("the listener is still accepting after Close")
		}
	})
}

// TestWithListenerStillInjectsFaults: a fault-injecting listener handed
// in through daemon.WithListener keeps its grip on the in-place path.
func TestWithListenerStillInjectsFaults(t *testing.T) {
	forEachTier(t, func(t *testing.T, name string, pools int) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		plan := &faultnet.Plan{Seed: 7, ResetWriteProb: 1}
		f := startTier(t, name, pools, fixtureOptions{server: []daemon.Option{daemon.WithListener(plan.Listen(ln))}})
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if conn, _, err := (&wsproto.Dialer{}).Dial(ctx, f.srv.BeaconURL()); err == nil {
			conn.Close(wsproto.CloseNormal, "")
			t.Fatal("handshake completed over a listener that resets every write")
		}
		if resets, _, _, _ := plan.Stats(); resets == 0 {
			t.Fatal("the plan injected nothing: the front lost the listener's wrapping")
		}
		if n := f.tel.Connections.Load(); n != 0 || f.e.sessions.Tracked() != 0 {
			t.Fatalf("connections = %d, sessions = %d; want none", n, f.e.sessions.Tracked())
		}
	})
}
