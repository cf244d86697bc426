package beacon

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	mathrand "math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"adaudit/internal/simclock"
	"adaudit/internal/trace"
	"adaudit/internal/wsproto"
)

// ErrSessionDead is returned by session operations after the underlying
// connection failed. A Report in flight treats it as a signal to
// reconnect and resume the impression under the same nonce.
var ErrSessionDead = errors.New("beacon: session connection died")

// Client replays the beacon's network behaviour from Go: it opens a
// WebSocket to the collector, sends the impression payload as a text
// frame, optionally streams interaction updates, and holds the
// connection open for the exposure duration — exactly the traffic the
// injected JavaScript generates, so the collector cannot tell them
// apart. Used by the simulator's device fleet and by integration tests.
//
// Real beacon links fail — mobile radios drop, NATs time out, pages are
// killed mid-exposure — so the client carries the retry discipline the
// paper's §4.1 loss model prices in: dials retry with capped
// exponential backoff plus jitter, and Report reconnects a session that
// dies mid-exposure, resuming the exposure clock under the same
// impression nonce so the collector deduplicates instead of
// double-counting. An explicit Retry-After hint from the server — a 503
// handshake rejection header, or a 1012/1013 close frame with a
// "retry-after=<dur>" reason — floors the next backoff delay, so shed
// clients return when the server expects capacity rather than when the
// jitter schedule guesses. The zero value keeps the historical
// single-attempt behaviour.
type Client struct {
	// CollectorURL is the ws:// endpoint of the collector.
	CollectorURL string
	// Dialer customises the underlying WebSocket dial (e.g. NetDial for
	// tests on internal/memnet). The zero value works.
	Dialer wsproto.Dialer
	// MaxAttempts bounds connection attempts per impression — the
	// initial dial plus retries after dial or mid-session failures.
	// 0 or 1 means a single attempt (no retry). However large it is,
	// Report sends the payload on at most MaxLegs connections.
	MaxAttempts int
	// RetryBackoff is the base delay before the first retry; each
	// further retry doubles it up to RetryBackoffMax. Defaults: 100ms
	// base, 5s cap. Every delay is jittered to half-to-full of its
	// nominal value so a fleet of reconnecting beacons does not
	// stampede the collector.
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	// Jitter overrides the jitter draw (a func returning [0,1)); nil
	// uses math/rand. Tests pin it for determinism.
	Jitter func() float64
	// Clock times the backoff sleeps, the exposure holds and the event
	// offsets; nil uses the real clock.
	Clock simclock.Clock
	// Tracer, when set, samples impressions for end-to-end pipeline
	// tracing: a sampled payload carries a trace ID and send timestamp
	// (payload keys tr/trts) that the collector adopts. Nil disables
	// client-side trace origination.
	Tracer *trace.Tracer
	// Wire selects the payload encoding: WireText (the default, what
	// the JavaScript beacon speaks) or WireBinary (the length-prefixed
	// encoding Go beacons negotiate by sending their first message as a
	// WebSocket binary frame). Both wires store identical records.
	Wire string

	// collector caches CollectorURL parsed: a client dials the one
	// endpoint once per impression.
	collector atomic.Pointer[parsedURL]
}

type parsedURL struct {
	raw string
	url *url.URL
}

// collectorURL returns CollectorURL parsed, reparsing only when the
// field has changed since the last dial.
func (c *Client) collectorURL() (*url.URL, error) {
	if p := c.collector.Load(); p != nil && p.raw == c.CollectorURL {
		return p.url, nil
	}
	u, err := url.Parse(c.CollectorURL)
	if err != nil {
		return nil, err
	}
	c.collector.Store(&parsedURL{raw: c.CollectorURL, url: u})
	return u, nil
}

// Wire encodings for Client.Wire.
const (
	WireText   = "text"
	WireBinary = "binary"
)

// NewNonce returns a fresh impression nonce: 16 random bytes, hex.
func NewNonce() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unrecoverable for the process anyway;
		// fall back to the time so the beacon still reports.
		return fmt.Sprintf("t%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// attempts normalises MaxAttempts.
func (c *Client) attempts() int {
	if c.MaxAttempts < 1 {
		return 1
	}
	return c.MaxAttempts
}

// backoff returns the jittered delay before retry number retry (0 = the
// first retry).
func (c *Client) backoff(retry int) time.Duration {
	base := c.RetryBackoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxd := c.RetryBackoffMax
	if maxd <= 0 {
		maxd = 5 * time.Second
	}
	d := base
	for i := 0; i < retry && d < maxd; i++ {
		d *= 2
	}
	if d > maxd {
		d = maxd
	}
	// Equal jitter: [d/2, d).
	j := c.Jitter
	if j == nil {
		j = mathrand.Float64
	}
	return d/2 + time.Duration(j()*float64(d/2))
}

// sleepBackoff waits out the retry delay, respecting ctx. A positive
// floor — the server's explicit Retry-After hint — overrides the
// jittered schedule when it asks for more patience: the server knows
// when it will have capacity again, the client's schedule is a guess.
func (c *Client) sleepBackoff(ctx context.Context, retry int, floor time.Duration) error {
	// A session with no connection never dies: its Hold is a plain wait.
	return (&Session{clk: simclock.Or(c.Clock)}).Hold(ctx, max(c.backoff(retry), floor))
}

// parseRetryAfterValue parses a server retry hint: integer seconds (the
// HTTP Retry-After form) or a Go duration string. 0 means no hint.
func parseRetryAfterValue(s string) time.Duration {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0
	}
	if secs, err := strconv.Atoi(s); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if d, err := time.ParseDuration(s); err == nil && d > 0 {
		return d
	}
	return 0
}

// retryAfterFromReason extracts a "retry-after=<value>" token from a
// close-frame reason, e.g. "draining retry-after=2s".
func retryAfterFromReason(reason string) time.Duration {
	const key = "retry-after="
	i := strings.Index(reason, key)
	if i < 0 {
		return 0
	}
	v := reason[i+len(key):]
	if j := strings.IndexByte(v, ' '); j >= 0 {
		v = v[:j]
	}
	return parseRetryAfterValue(v)
}

// stampTrace makes the client-side sampling decision, stamping a
// fresh trace ID and send time into the payload. A payload that
// already carries trace context (a reconnect resending under the same
// nonce, or a caller-supplied ID) keeps it — one impression, one
// trace.
func (c *Client) stampTrace(p *Payload) {
	if c.Tracer == nil || p.TraceID != "" {
		return
	}
	if id, ok := c.Tracer.SampleID(); ok {
		p.TraceID = id.String()
		p.TraceSent = time.Now().UnixNano()
	}
}

// Session is a live beacon connection for one ad impression.
type Session struct {
	conn *wsproto.Conn
	clk  simclock.Clock // the client's, which times Hold
	// binary is true when the session negotiated the binary wire; event
	// updates then go out as binary frames too.
	binary bool
	// dead closes when the connection's read side fails — the earliest
	// client-side signal that the collector is gone.
	dead chan struct{}
	// retryAfter is the server's reconnect hint from a received close
	// frame (a 1012/1013 "retry-after=<dur>" reason). Written before
	// dead closes, read after — the channel close orders the accesses.
	retryAfter time.Duration
}

// Done returns a channel closed when the session's connection has died.
func (s *Session) Done() <-chan struct{} { return s.dead }

// RetryAfter returns the server's explicit reconnect-delay hint, if the
// session ended with a close frame carrying one (a draining or
// overloaded endpoint). Zero means no hint. Only valid once Done() has
// closed.
func (s *Session) RetryAfter() time.Duration { return s.retryAfter }

// serviceControlFrames keeps a reader on the connection so protocol
// control traffic is handled for the session's lifetime — in particular
// the collector's keep-alive pings get their automatic pongs, exactly
// as a browser's WebSocket implementation pongs beneath the page's
// JavaScript. It exits (closing the dead channel) when the connection
// dies, capturing any Retry-After hint the close frame carried.
func (s *Session) serviceControlFrames() {
	defer close(s.dead)
	for {
		if _, _, err := s.conn.ReadMessage(); err != nil {
			var ce *wsproto.CloseError
			if errors.As(err, &ce) {
				s.retryAfter = retryAfterFromReason(ce.Reason)
			}
			return
		}
	}
}

// Open connects to the collector and transmits the initial impression
// payload, retrying failed dials and sends up to the client's attempt
// budget with capped exponential backoff. The returned session keeps
// the connection (and therefore the collector's exposure clock) running
// until Close.
func (c *Client) Open(ctx context.Context, p Payload) (*Session, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c.stampTrace(&p)
	var lastErr error
	var hint time.Duration
	for attempt := 0; attempt < c.attempts(); attempt++ {
		if attempt > 0 {
			if err := c.sleepBackoff(ctx, attempt-1, hint); err != nil {
				return nil, err
			}
		}
		sess, h, err := c.openOnce(ctx, p)
		if err == nil {
			return sess, nil
		}
		lastErr, hint = err, h
		if ctx.Err() != nil {
			return nil, lastErr
		}
	}
	return nil, lastErr
}

// openOnce makes one dial-and-send attempt. When the server rejects the
// handshake (e.g. a 503 from an overloaded endpoint), the returned
// duration carries its Retry-After hint for the caller's next backoff.
func (c *Client) openOnce(ctx context.Context, p Payload) (*Session, time.Duration, error) {
	d := c.Dialer
	if d.Header == nil {
		d.Header = http.Header{}
		// Browsers send the page origin and UA with the WS handshake;
		// the collector prefers the in-payload values but logs these.
		if p.UserAgent != "" {
			d.Header.Set("User-Agent", p.UserAgent)
		}
	}
	u, err := c.collectorURL()
	if err != nil {
		return nil, 0, fmt.Errorf("beacon: parsing collector url: %w", err)
	}
	conn, resp, err := d.DialURL(ctx, u)
	if err != nil {
		var hint time.Duration
		if resp != nil {
			hint = parseRetryAfterValue(resp.Header.Get("Retry-After"))
		}
		return nil, hint, fmt.Errorf("beacon: dialing collector: %w", err)
	}
	binary := c.Wire == WireBinary
	if binary {
		err = conn.WriteMessage(wsproto.OpBinary, p.EncodeBinary())
	} else {
		err = conn.WriteText(p.Encode())
	}
	if err != nil {
		conn.Close(wsproto.CloseInternalError, "write failed")
		return nil, 0, fmt.Errorf("beacon: sending impression: %w", err)
	}
	// The session's reader only services control frames and discards
	// whatever else arrives, so it can recycle one read buffer.
	conn.ReuseReadBuffer()
	sess := &Session{conn: conn, clk: simclock.Or(c.Clock), binary: binary, dead: make(chan struct{})}
	go sess.serviceControlFrames()
	return sess, 0, nil
}

// SendEvent streams an interaction update on the open session, using
// whichever wire the session's opening payload negotiated.
func (s *Session) SendEvent(e Event) error {
	var err error
	if s.binary {
		err = s.conn.WriteMessage(wsproto.OpBinary, EncodeBinaryEventUpdate(e))
	} else {
		err = s.conn.WriteText(EncodeEventUpdate(e))
	}
	if err != nil {
		return fmt.Errorf("beacon: sending event: %w: %w", ErrSessionDead, err)
	}
	return nil
}

// Hold keeps the session open for d (simulating the user staying on the
// page), respecting ctx cancellation. It returns ErrSessionDead as soon
// as the connection fails — a browser notices its socket dying the same
// way — so callers can reconnect instead of sleeping through a dead
// link.
func (s *Session) Hold(ctx context.Context, d time.Duration) error {
	t := s.clk.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C():
		return nil
	case <-s.dead:
		return ErrSessionDead
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close ends the impression: the collector records the disconnect time
// and derives the exposure duration.
func (s *Session) Close() error {
	return s.conn.Close(wsproto.CloseNormal, "unload")
}

// Report is a convenience helper: open, hold for the exposure duration,
// send the given events at their offsets (best effort), and close. A
// close-frame failure on the success path is reported (the collector
// will have recorded an abnormal close), so callers see the session as
// the collector saw it.
//
// With MaxAttempts > 1 a session that dies mid-exposure is reopened
// under the same nonce (generated if the payload has none) and the
// exposure clock resumes where it left off: time already spent exposed
// counts, events already delivered are not resent, and the collector
// merges the resumed connection into the original impression: every
// connection that sent the payload advances its Leg.
func (c *Client) Report(ctx context.Context, p Payload, exposure time.Duration) (err error) {
	events := p.Events
	p.Events = nil
	if p.Nonce == "" && c.attempts() > 1 {
		// Reconnects need an identity to dedup under; single-attempt
		// clients keep the historical nonce-free wire format.
		p.Nonce = NewNonce()
	}
	// Stamp trace context once, before the reconnect loop, so every
	// reconnect resends the same trace ID and the collector's merge
	// path keeps a single causal trace for the impression.
	c.stampTrace(&p)

	start := simclock.Or(c.Clock).Now()
	sent := 0 // events already delivered on a previous connection
	reconnects := 0
	for {
		sess, err := c.Open(ctx, p)
		if err != nil {
			return err
		}
		err = c.runExposure(ctx, sess, events, &sent, start, exposure)
		if err == nil {
			// Success path: a failed close frame means the collector
			// recorded an abnormal close — report it, don't mask it.
			return sess.Close()
		}
		_ = sess.Close()
		if ctx.Err() != nil {
			return err
		}
		reconnects++
		if reconnects >= c.attempts() || int(p.Leg)+1 >= MaxLegs {
			return err
		}
		p.Leg++
		// If the server closed the session with an explicit reconnect
		// hint (a draining gateway, an overloaded collector), floor the
		// backoff on it. Only read once the session is fully dead.
		var hint time.Duration
		select {
		case <-sess.Done():
			hint = sess.RetryAfter()
		default:
		}
		if serr := c.sleepBackoff(ctx, reconnects-1, hint); serr != nil {
			return serr
		}
	}
}

// runExposure drives one connection's share of the impression: events
// still pending at their offsets, then the remaining exposure time.
// Offsets and the remaining hold are measured against start — the first
// connection's open — so a reconnect resumes the clock rather than
// restarting it.
func (c *Client) runExposure(ctx context.Context, sess *Session, events []Event, sent *int, start time.Time, exposure time.Duration) error {
	for *sent < len(events) {
		e := events[*sent]
		if wait := e.At - sess.clk.Since(start); wait > 0 {
			if err := sess.Hold(ctx, wait); err != nil {
				return err
			}
		}
		if err := sess.SendEvent(e); err != nil {
			return err
		}
		*sent++
	}
	if remaining := exposure - sess.clk.Since(start); remaining > 0 {
		return sess.Hold(ctx, remaining)
	}
	return nil
}
