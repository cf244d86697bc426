package beacon

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaudit/internal/wsproto"
)

// fastRetry returns retry settings that keep tests quick and
// deterministic.
func fastRetry(c *Client, attempts int) *Client {
	c.MaxAttempts = attempts
	c.RetryBackoff = time.Millisecond
	c.RetryBackoffMax = 4 * time.Millisecond
	c.Jitter = func() float64 { return 0.5 }
	return c
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	c := &Client{
		RetryBackoff:    100 * time.Millisecond,
		RetryBackoffMax: 400 * time.Millisecond,
		Jitter:          func() float64 { return 0 }, // low edge: d/2
	}
	for i, want := range []time.Duration{
		50 * time.Millisecond,  // 100ms/2
		100 * time.Millisecond, // 200ms/2
		200 * time.Millisecond, // 400ms/2 (cap)
		200 * time.Millisecond, // stays capped
	} {
		if got := c.backoff(i); got != want {
			t.Fatalf("backoff(%d) = %v, want %v", i, got, want)
		}
	}
	// High edge of the jitter window: just under the nominal delay.
	c.Jitter = func() float64 { return 0.999 }
	if got := c.backoff(0); got < 99*time.Millisecond || got > 100*time.Millisecond {
		t.Fatalf("jittered backoff(0) = %v, want just under 100ms", got)
	}
	// Defaults applied when unset.
	d := &Client{Jitter: func() float64 { return 0 }}
	if got := d.backoff(0); got != 50*time.Millisecond {
		t.Fatalf("default backoff(0) = %v, want 50ms", got)
	}
}

func TestOpenRetriesFailedDials(t *testing.T) {
	var calls atomic.Int32
	up := &wsproto.Upgrader{MaxMessageSize: 1 << 16}
	payloads := make(chan Payload, 4)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			// The first two attempts find an overloaded collector.
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		conn, err := up.Upgrade(w, r)
		if err != nil {
			return
		}
		defer conn.Close(wsproto.CloseNormal, "")
		for {
			_, msg, err := conn.ReadMessage()
			if err != nil {
				return
			}
			if p, err := Decode(string(msg)); err == nil {
				payloads <- p
			}
		}
	}))
	defer srv.Close()

	c := fastRetry(&Client{CollectorURL: "ws" + strings.TrimPrefix(srv.URL, "http")}, 3)
	sess, err := c.Open(context.Background(), samplePayload())
	if err != nil {
		t.Fatalf("Open with 3 attempts failed: %v", err)
	}
	defer sess.Close()
	if got := calls.Load(); got != 3 {
		t.Fatalf("collector saw %d attempts, want 3", got)
	}
	select {
	case <-payloads:
	case <-time.After(2 * time.Second):
		t.Fatal("payload never arrived after retries")
	}
}

func TestOpenExhaustsAttemptBudget(t *testing.T) {
	c := fastRetry(&Client{CollectorURL: "ws://127.0.0.1:1"}, 3)
	start := time.Now()
	if _, err := c.Open(context.Background(), samplePayload()); err == nil {
		t.Fatal("dial to closed port eventually succeeded?")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("retries took far longer than the configured backoff")
	}
}

// killingStub is a collector that hard-kills the first kills
// connections after receiving the payload, then serves normally —
// the mid-exposure disconnect a crashed NAT binding produces.
type killingStub struct {
	srv   *httptest.Server
	kills int

	mu       sync.Mutex
	conns    int
	payloads []Payload
	events   []Event
}

func newKillingStub(t *testing.T, kills int) *killingStub {
	t.Helper()
	ks := &killingStub{kills: kills}
	up := &wsproto.Upgrader{MaxMessageSize: 1 << 16}
	ks.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := up.Upgrade(w, r)
		if err != nil {
			return
		}
		defer conn.Close(wsproto.CloseNormal, "")
		ks.mu.Lock()
		ks.conns++
		kill := ks.conns <= ks.kills
		ks.mu.Unlock()
		for {
			_, msg, err := conn.ReadMessage()
			if err != nil {
				return
			}
			if e, isEvent, err := DecodeEventUpdate(string(msg)); isEvent {
				if err == nil {
					ks.mu.Lock()
					ks.events = append(ks.events, e)
					ks.mu.Unlock()
				}
				continue
			}
			if p, err := Decode(string(msg)); err == nil {
				ks.mu.Lock()
				ks.payloads = append(ks.payloads, p)
				ks.mu.Unlock()
				if kill {
					// Mid-exposure death: no close frame, straight RST.
					_ = conn.NetConn().Close()
					return
				}
			}
		}
	}))
	t.Cleanup(ks.srv.Close)
	return ks
}

func (ks *killingStub) wsURL() string {
	return "ws" + strings.TrimPrefix(ks.srv.URL, "http")
}

func TestReportReconnectsAndResumesExposureClock(t *testing.T) {
	ks := newKillingStub(t, 1)
	c := fastRetry(&Client{CollectorURL: ks.wsURL()}, 4)
	p := samplePayload()
	p.Events = []Event{
		{Kind: EventMouseMove, At: 10 * time.Millisecond},
		{Kind: EventClick, At: 250 * time.Millisecond},
	}
	const exposure = 400 * time.Millisecond
	start := time.Now()
	if err := c.Report(context.Background(), p, exposure); err != nil {
		t.Fatalf("Report with reconnects failed: %v", err)
	}
	elapsed := time.Since(start)

	ks.mu.Lock()
	defer ks.mu.Unlock()
	if ks.conns < 2 {
		t.Fatalf("collector saw %d connections, want >= 2 (a reconnect)", ks.conns)
	}
	if len(ks.payloads) < 2 {
		t.Fatalf("collector saw %d payloads, want one per connection", len(ks.payloads))
	}
	// Every connection re-sent the SAME nonce, so the collector can
	// dedup.
	nonce := ks.payloads[0].Nonce
	if nonce == "" {
		t.Fatal("retry-enabled Report sent no nonce")
	}
	for i, p := range ks.payloads {
		if p.Nonce != nonce || p.Leg != uint8(i) {
			t.Fatalf("payload %d carried nonce %q leg %d, want %q leg %d", i, p.Nonce, p.Leg, nonce, i)
		}
	}
	// The exposure clock resumed rather than restarted: total wall time
	// stays near one exposure, not one per connection.
	if elapsed > exposure+300*time.Millisecond {
		t.Fatalf("Report took %v; a resumed clock should stay near %v", elapsed, exposure)
	}
	// Events were not replayed on the second connection.
	if len(ks.events) != len(p.Events) {
		t.Fatalf("collector saw %d events, want exactly %d (no replays)", len(ks.events), len(p.Events))
	}
}

// TestReportSendsAtMostMaxLegs: however many attempts a client may
// make, Report sends the payload on MaxLegs connections at most, so no
// leg reaches past the mask the collector keeps.
func TestReportSendsAtMostMaxLegs(t *testing.T) {
	ks := newKillingStub(t, 1<<10) // every connection dies
	c := fastRetry(&Client{CollectorURL: ks.wsURL()}, MaxLegs+8)
	if err := c.Report(context.Background(), samplePayload(), time.Minute); err == nil {
		t.Fatal("Report succeeded against a collector that kills every connection")
	}
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if len(ks.payloads) != MaxLegs {
		t.Fatalf("the payload went out on %d connections, want %d", len(ks.payloads), MaxLegs)
	}
	for i, p := range ks.payloads {
		if p.Leg != uint8(i) {
			t.Fatalf("connection %d sent leg %d", i, p.Leg)
		}
	}
}

func TestReportSingleAttemptKeepsLegacyWireFormat(t *testing.T) {
	cs := &collectStub{payloads: make(chan Payload, 1), events: make(chan Event, 2)}
	url, dial := serveMem(t, cs)
	c := &Client{CollectorURL: url, Dialer: wsproto.Dialer{NetDial: dial}}
	// The payload's events sit 1.2 s and 3.4 s in: virtual time.
	_, _, stop := virtualDialTimes(c)
	err := c.Report(context.Background(), samplePayload(), 10*time.Millisecond)
	stop()
	if err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-cs.payloads:
		if got.Nonce != "" {
			t.Fatalf("single-attempt client sent nonce %q, want none", got.Nonce)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("payload never arrived")
	}
}

// failAfterWrites wraps a net.Conn whose writes start failing after the
// first n succeed — deterministic stand-in for a link that dies between
// the payload and the close frame.
type failAfterWrites struct {
	net.Conn
	n int32
}

func (f *failAfterWrites) Write(b []byte) (int, error) {
	if atomic.AddInt32(&f.n, -1) < 0 {
		return 0, errors.New("link dead")
	}
	return f.Conn.Write(b)
}

func TestReportPropagatesCloseErrorOnSuccessPath(t *testing.T) {
	cs := newCollectStub(t)
	c := &Client{
		CollectorURL: cs.wsURL(),
		Dialer: wsproto.Dialer{
			// Handshake request + payload frame succeed; the close
			// frame hits a dead link.
			NetDial: func(ctx context.Context, network, addr string) (net.Conn, error) {
				nc, err := (&net.Dialer{}).DialContext(ctx, network, addr)
				if err != nil {
					return nil, err
				}
				return &failAfterWrites{Conn: nc, n: 2}, nil
			},
		},
	}
	err := c.Report(context.Background(), samplePayload(), 0)
	if err == nil {
		t.Fatal("Report reported success although the close frame never went out " +
			"(the collector recorded an abnormal close)")
	}
}

func TestNewNonceUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		n := NewNonce()
		if n == "" || seen[n] {
			t.Fatalf("nonce %q empty or repeated", n)
		}
		seen[n] = true
	}
}
