// Package beacon implements the measurement code the paper injects into
// HTML5 display ads (§3): the payload format the in-ad JavaScript sends
// over a WebSocket to the central collector, a Go client speaking the
// same wire protocol (indistinguishable from a browser at the collector),
// the server half of that protocol — Server, the one session loop the
// collector and the forwarding edge both run — and a generator for the
// embeddable JavaScript snippet itself.
package beacon

import (
	"fmt"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"
)

// PayloadVersion is the wire-format version this package speaks.
const PayloadVersion = 1

// EventKind is a user-interaction type observed on the ad.
type EventKind string

// Interaction kinds the paper's JavaScript collects, plus the
// visibility extension.
const (
	EventMouseMove EventKind = "move"
	EventClick     EventKind = "click"
	// EventVisibility reports the fraction of the ad's pixels inside
	// the viewport. The paper's §3.1 notes the Same-Origin policy hides
	// this in cross-origin iframes, limiting it to a viewability upper
	// bound; placements in friendly (same-origin) iframes CAN measure
	// it, and this event carries that measurement when available.
	EventVisibility EventKind = "vis"
)

// Event is one user interaction with the ad.
type Event struct {
	Kind EventKind
	// At is the time since the impression rendered.
	At time.Duration
	// Fraction is the visible-pixel fraction in [0,1]; only meaningful
	// for EventVisibility.
	Fraction float64
}

// MaxEvents bounds the events one impression carries. Both decoders
// refuse a payload that holds more, and a session stops appending
// updates once it has this many. That keeps a session's commit within a
// trunk message and stops a hostile header from pre-sizing a huge
// slice. An honest beacon stays far below it: moves are throttled to
// one per 500 ms, about 3,600 in a 30-minute exposure.
const MaxEvents = 1 << 16

// MaxLegs bounds Payload.Leg, a constant of the format: both decoders
// refuse a leg of MaxLegs or more.
const MaxLegs = 32

// Payload is the information the beacon transmits for one ad impression.
// The collector augments it with connection-derived facts (client IP,
// timestamps, exposure time) which deliberately do NOT travel in the
// payload: the paper derives them server-side so a lying client cannot
// forge them.
type Payload struct {
	// CampaignID identifies the advertiser campaign the creative
	// belongs to.
	CampaignID string
	// CreativeID identifies the specific ad creative.
	CreativeID string
	// PageURL is the full URL of the page displaying the ad; its host
	// is the publisher. Inside a cross-origin iframe the beacon reads
	// document.referrer, the standard workaround the paper's §3.1
	// Same-Origin discussion implies.
	PageURL string
	// UserAgent is the browser's navigator.userAgent.
	UserAgent string
	// Nonce is a client-generated impression identifier. A beacon that
	// reconnects after a network failure resends its payload with the
	// same nonce, and the collector folds the resumed session into the
	// original record instead of double-counting the impression.
	// Optional: an empty nonce opts out of deduplication (the original
	// paper's JavaScript predates it).
	Nonce string
	// Leg numbers the connections that sent this nonce's payload, from
	// 0; the collector counts each leg once. It is on the wire only when
	// non-zero, so a beacon that never reconnects sends the old bytes.
	Leg uint8
	// Events are user interactions observed so far.
	Events []Event
	// TraceID is an optional 16-hex-digit pipeline trace identifier
	// (internal/trace). A beacon that carries one has been sampled by
	// the sender; the collector adopts the trace so the impression's
	// journey is observable end to end. Empty means untraced.
	TraceID string
	// TraceSent is the sender's wall clock at send time in unix
	// nanoseconds (0 if unknown), letting the collector estimate wire
	// transit. The collector clamps it against clock skew and never
	// uses it for accounting — audit timestamps remain server-derived.
	TraceSent int64
}

// Validate checks the payload is complete enough to ingest.
func (p Payload) Validate() error {
	switch {
	case p.CampaignID == "":
		return fmt.Errorf("beacon: payload missing campaign id")
	case p.CreativeID == "":
		return fmt.Errorf("beacon: payload missing creative id")
	case p.PageURL == "":
		return fmt.Errorf("beacon: payload missing page url")
	}
	if _, ok := plainHost(p.PageURL); ok {
		return nil
	}
	if _, err := url.Parse(p.PageURL); err != nil {
		return fmt.Errorf("beacon: invalid page url: %w", err)
	}
	return nil
}

// plainHost recognises the ordinary page URL without allocating and
// returns its host, exactly url.Parse's Hostname(): lower-case
// "http://" or "https://", a non-empty host of letters, digits, '.'
// and '-', an optional ":" and decimal port, then the end or a '/',
// '?' or '#' followed only by printable ASCII with no '%' (nothing to
// unescape, nothing url.Parse rejects). Everything else — userinfo,
// IPv6 literals, escapes, other schemes, control or non-ASCII bytes —
// reports !ok and is url.Parse's to judge, so the fast path changes no
// verdict (FuzzPlainHost holds it to that).
func plainHost(pageURL string) (host string, ok bool) {
	rest, found := strings.CutPrefix(pageURL, "http://")
	if !found {
		if rest, found = strings.CutPrefix(pageURL, "https://"); !found {
			return "", false
		}
	}
	i := 0
	for ; i < len(rest); i++ {
		c := rest[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '.' || c == '-') {
			break
		}
	}
	if i == 0 {
		return "", false
	}
	host = rest[:i]
	if i < len(rest) && rest[i] == ':' {
		for i++; i < len(rest) && '0' <= rest[i] && rest[i] <= '9'; i++ {
		}
	}
	if i < len(rest) && rest[i] != '/' && rest[i] != '?' && rest[i] != '#' {
		return "", false
	}
	for ; i < len(rest); i++ {
		if c := rest[i]; c <= ' ' || c >= 0x7f || c == '%' {
			return "", false
		}
	}
	return host, true
}

// Publisher returns the publisher domain: the hostname of PageURL,
// lower-cased and stripped of a "www." prefix, matching how the paper
// reduces impression URLs to publishers.
func (p Payload) Publisher() (string, error) {
	host, ok := plainHost(p.PageURL)
	if !ok {
		u, err := url.Parse(p.PageURL)
		if err != nil {
			return "", fmt.Errorf("beacon: parsing page url: %w", err)
		}
		host = u.Hostname()
	}
	host = strings.TrimPrefix(strings.ToLower(host), "www.")
	if host == "" {
		return "", fmt.Errorf("beacon: page url %q has no host", p.PageURL)
	}
	return host, nil
}

// Encode serialises the payload to the string the beacon sends as a
// WebSocket text message: URL-encoded key/value pairs, the format a
// five-line JavaScript encoder can emit. The bytes are those of
// url.Values.Encode — keys in sorted order, values query-escaped —
// appended directly, since every impression pays for this once.
func (p Payload) Encode() string {
	var buf [512]byte
	b := appendPair(buf[:0], "cid", p.CampaignID)
	b = appendPair(b, "crid", p.CreativeID)
	if len(p.Events) > 0 {
		var evs [128]byte
		ev := evs[:0]
		for i, e := range p.Events {
			if i > 0 {
				ev = append(ev, ',')
			}
			ev = appendEvent(ev, e)
		}
		b = appendPair(b, "ev", ev)
	}
	if p.Leg != 0 {
		var leg [3]byte
		b = appendPair(b, "leg", strconv.AppendUint(leg[:0], uint64(p.Leg), 10))
	}
	if p.Nonce != "" {
		b = appendPair(b, "n", p.Nonce)
	}
	if p.TraceID != "" {
		b = appendPair(b, "tr", p.TraceID)
		if p.TraceSent > 0 {
			var ts [20]byte
			b = appendPair(b, "trts", strconv.AppendInt(ts[:0], p.TraceSent, 10))
		}
	}
	b = appendPair(b, "ua", p.UserAgent)
	b = appendPair(b, "url", p.PageURL)
	b = appendPair(b, "v", strconv.Itoa(PayloadVersion))
	return string(b)
}

// appendPair appends "key=value" with the value escaped as
// url.QueryEscape does, preceded by '&' unless it is the first pair.
// Keys are this package's own and need no escaping.
func appendPair[S string | []byte](dst []byte, key string, value S) []byte {
	if len(dst) > 0 {
		dst = append(dst, '&')
	}
	dst = append(dst, key...)
	dst = append(dst, '=')
	for i := 0; i < len(value); i++ {
		switch c := value[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '-', c == '_', c == '.', c == '~':
			dst = append(dst, c)
		case c == ' ':
			dst = append(dst, '+')
		default:
			const upperhex = "0123456789ABCDEF"
			dst = append(dst, '%', upperhex[c>>4], upperhex[c&15])
		}
	}
	return dst
}

// appendEvent renders one event: "kind@ms" or "vis@ms:frac".
func appendEvent(dst []byte, e Event) []byte {
	dst = append(dst, e.Kind...)
	dst = append(dst, '@')
	dst = strconv.AppendInt(dst, e.At.Milliseconds(), 10)
	if e.Kind == EventVisibility {
		dst = append(dst, ':')
		dst = strconv.AppendFloat(dst, e.Fraction, 'f', 3, 64)
	}
	return dst
}

// decodeEvent parses one event token.
func decodeEvent(part string) (Event, error) {
	kind, rest, ok := strings.Cut(part, "@")
	if !ok {
		return Event{}, fmt.Errorf("beacon: malformed event %q", part)
	}
	atRaw, fracRaw, hasFrac := strings.Cut(rest, ":")
	ms, err := strconv.ParseInt(atRaw, 10, 64)
	if err != nil || ms < 0 {
		return Event{}, fmt.Errorf("beacon: malformed event time %q", atRaw)
	}
	e := Event{Kind: EventKind(kind), At: time.Duration(ms) * time.Millisecond}
	switch e.Kind {
	case EventMouseMove, EventClick:
		if hasFrac {
			return Event{}, fmt.Errorf("beacon: unexpected fraction on %q", part)
		}
	case EventVisibility:
		if !hasFrac {
			return Event{}, fmt.Errorf("beacon: visibility event %q missing fraction", part)
		}
		f, err := strconv.ParseFloat(fracRaw, 64)
		if err != nil || f < 0 || f > 1 {
			return Event{}, fmt.Errorf("beacon: malformed visibility fraction %q", fracRaw)
		}
		e.Fraction = f
	default:
		return Event{}, fmt.Errorf("beacon: unknown event kind %q", kind)
	}
	return e, nil
}

// Decode parses a payload string received by the collector. It is
// deliberately tolerant of unknown keys (future beacon versions) but
// strict about the version and the event syntax.
func Decode(s string) (Payload, error) {
	f, err := scanText(s)
	if err != nil {
		return Payload{}, fmt.Errorf("beacon: parsing payload: %w", err)
	}
	get := func(key string) string { return f[slices.Index(textKeys[:], key)] }
	if ver := get("v"); ver != strconv.Itoa(PayloadVersion) {
		return Payload{}, fmt.Errorf("beacon: unsupported payload version %q", ver)
	}
	p := Payload{
		CampaignID: get("cid"),
		CreativeID: get("crid"),
		PageURL:    get("url"),
		UserAgent:  get("ua"),
		Nonce:      get("n"),
	}
	if raw := get("leg"); raw != "" {
		leg, err := strconv.ParseUint(raw, 10, 8)
		if err != nil || leg >= MaxLegs {
			return Payload{}, fmt.Errorf("beacon: malformed leg %q", raw)
		}
		p.Leg = uint8(leg)
	}
	// Trace context is best-effort observability: a malformed tr/trts
	// pair is dropped rather than rejecting the impression — tracing
	// must never cost the audit a record.
	if tr := get("tr"); tr != "" && len(tr) <= 16 {
		if _, err := strconv.ParseUint(tr, 16, 64); err == nil {
			p.TraceID = tr
			if ts, err := strconv.ParseInt(get("trts"), 10, 64); err == nil && ts > 0 {
				p.TraceSent = ts
			}
		}
	}
	if raw := get("ev"); raw != "" {
		n := strings.Count(raw, ",") + 1
		if n > MaxEvents {
			return Payload{}, fmt.Errorf("beacon: payload carries %d events (max %d)", n, MaxEvents)
		}
		p.Events = make([]Event, 0, n)
		for more := true; more; {
			var part string
			part, raw, more = strings.Cut(raw, ",")
			e, err := decodeEvent(part)
			if err != nil {
				return Payload{}, err
			}
			p.Events = append(p.Events, e)
		}
	}
	if err := p.Validate(); err != nil {
		return Payload{}, err
	}
	return p, nil
}

// textKeys are the keys Decode reads from a text payload.
var textKeys = [...]string{"v", "cid", "crid", "url", "ua", "n", "leg", "tr", "trts", "ev"}

// scanText walks s's '&'-separated pairs once and returns the first
// value of each of textKeys, in the same order. It accepts exactly what
// url.ParseQuery accepts and returns what Get would from its result: a
// ';' anywhere or a bad escape in any key or value is an error, keys
// are unescaped before they are matched, and '+' is a space. Like
// url.QueryUnescape, it returns a value with no escape as a substring.
func scanText(s string) (f [len(textKeys)]string, err error) {
	var seen uint16
	for s != "" {
		var pair, key, value string
		pair, s, _ = strings.Cut(s, "&")
		if strings.IndexByte(pair, ';') >= 0 {
			return f, fmt.Errorf("invalid semicolon separator in query")
		}
		key, value, _ = strings.Cut(pair, "=")
		if key, err = url.QueryUnescape(key); err != nil {
			return f, err
		}
		if value, err = url.QueryUnescape(value); err != nil {
			return f, err
		}
		if i := slices.Index(textKeys[:], key); i >= 0 && seen&(1<<i) == 0 {
			seen |= 1 << i
			f[i] = value
		}
	}
	return f, nil
}

// eventMessagePrefix distinguishes incremental interaction updates sent
// after the initial impression message on the same connection.
const eventMessagePrefix = "ev:"

// EncodeEventUpdate serialises a single interaction event sent after the
// initial impression message.
func EncodeEventUpdate(e Event) string {
	var buf [64]byte
	return string(appendEvent(append(buf[:0], eventMessagePrefix...), e))
}

// DecodeEventUpdate parses an incremental interaction message. ok is
// false if the message is not an event update (i.e. it should be parsed
// as an initial payload instead).
func DecodeEventUpdate(s string) (Event, bool, error) {
	if !strings.HasPrefix(s, eventMessagePrefix) {
		return Event{}, false, nil
	}
	e, err := decodeEvent(strings.TrimPrefix(s, eventMessagePrefix))
	if err != nil {
		return Event{}, true, err
	}
	return e, true, nil
}
