package beacon

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaudit/internal/simclock"
	"adaudit/internal/wsproto"
)

func TestParseRetryAfterValue(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"3", 3 * time.Second},
		{" 10 ", 10 * time.Second},
		{"0", 0},
		{"-2", 0},
		{"1500ms", 1500 * time.Millisecond},
		{"2s", 2 * time.Second},
		{"", 0},
		{"soon", 0},
		{"-1s", 0},
	}
	for _, c := range cases {
		if got := parseRetryAfterValue(c.in); got != c.want {
			t.Errorf("parseRetryAfterValue(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRetryAfterFromReason(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"retry-after=2s", 2 * time.Second},
		{"draining retry-after=500ms resumable", 500 * time.Millisecond},
		{"overloaded retry-after=3", 3 * time.Second},
		{"draining", 0},
		{"", 0},
		{"retry-after=", 0},
	}
	for _, c := range cases {
		if got := retryAfterFromReason(c.in); got != c.want {
			t.Errorf("retryAfterFromReason(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// virtualDialTimes puts a client on a virtual clock — its backoff,
// exposure holds and event offsets — and records the virtual instant of
// every dial, with a background driver advancing the clock in small
// steps so those timers eventually fire. stop must be called before
// reading the recorded times.
func virtualDialTimes(c *Client) (v *simclock.Virtual, times *[]time.Time, stop func()) {
	v = simclock.NewVirtual(time.Time{})
	c.Clock = v
	var mu sync.Mutex
	var recorded []time.Time
	base := c.Dialer.NetDial
	if base == nil {
		base = func(ctx context.Context, network, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, network, addr)
		}
	}
	c.Dialer.NetDial = func(ctx context.Context, network, addr string) (net.Conn, error) {
		mu.Lock()
		recorded = append(recorded, v.Now())
		mu.Unlock()
		return base(ctx, network, addr)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				v.Advance(250 * time.Millisecond)
				time.Sleep(time.Millisecond)
			}
		}
	}()
	return v, &recorded, func() { close(done); wg.Wait() }
}

// TestOpenHonorsRetryAfterHeader proves the 503 path: a handshake
// rejection carrying "Retry-After: 3" floors the next dial at three
// seconds of virtual time, far beyond the millisecond-scale jitter
// schedule the client would otherwise use.
func TestOpenHonorsRetryAfterHeader(t *testing.T) {
	var calls atomic.Int32
	up := &wsproto.Upgrader{MaxMessageSize: 1 << 16}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "3")
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		conn, err := up.Upgrade(w, r)
		if err != nil {
			return
		}
		defer conn.Close(wsproto.CloseNormal, "")
		for {
			if _, _, err := conn.ReadMessage(); err != nil {
				return
			}
		}
	}))
	defer srv.Close()

	c := fastRetry(&Client{CollectorURL: "ws" + strings.TrimPrefix(srv.URL, "http")}, 3)
	_, dials, stop := virtualDialTimes(c)
	sess, err := c.Open(context.Background(), samplePayload())
	stop()
	if err != nil {
		t.Fatalf("Open after Retry-After failed: %v", err)
	}
	defer sess.Close()
	if len(*dials) < 2 {
		t.Fatalf("recorded %d dials, want >= 2", len(*dials))
	}
	// The hinted 3s floors the ~0.75ms jittered schedule.
	if gap := (*dials)[1].Sub((*dials)[0]); gap < 3*time.Second {
		t.Fatalf("second dial came %v of virtual time after the first, want >= 3s (the Retry-After hint)", gap)
	}
}

// TestReportHonorsCloseFrameRetryAfter proves the close-frame path: a
// server that ends the session with 1013 (try again later) and a
// "retry-after=2s" reason delays the reconnect by at least the hint.
func TestReportHonorsCloseFrameRetryAfter(t *testing.T) {
	var conns atomic.Int32
	up := &wsproto.Upgrader{MaxMessageSize: 1 << 16}
	url, dial := serveMem(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := up.Upgrade(w, r)
		if err != nil {
			return
		}
		if conns.Add(1) == 1 {
			// Read the payload, then shed the session with a hint.
			_, _, _ = conn.ReadMessage()
			conn.Close(wsproto.CloseTryAgainLater, "overloaded retry-after=2s")
			return
		}
		defer conn.Close(wsproto.CloseNormal, "")
		for {
			if _, _, err := conn.ReadMessage(); err != nil {
				return
			}
		}
	}))

	c := fastRetry(&Client{CollectorURL: url, Dialer: wsproto.Dialer{NetDial: dial}}, 4)
	_, dials, stop := virtualDialTimes(c)
	err := c.Report(context.Background(), samplePayload(), 100*time.Millisecond)
	stop()
	if err != nil {
		t.Fatalf("Report across a hinted shed failed: %v", err)
	}
	if len(*dials) < 2 {
		t.Fatalf("recorded %d dials, want >= 2 (a reconnect)", len(*dials))
	}
	if gap := (*dials)[1].Sub((*dials)[0]); gap < 2*time.Second {
		t.Fatalf("reconnect came %v of virtual time after the shed, want >= 2s (the close-frame hint)", gap)
	}
}
