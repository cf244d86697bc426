package beacon

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"time"
)

// Binary wire format (DESIGN.md §13). The text payload is what a
// five-line JavaScript encoder can emit; the binary format is for Go
// beacons (the simulator's device fleet, load generators) and for any
// client that wants the collector's zero-allocation decode path. It is
// negotiated per connection by the WebSocket opcode of the first
// message: OpText selects the historical text protocol, OpBinary this
// one. Both encodings carry the same fields with the same quantization
// (event times in whole milliseconds, visibility fractions rounded to
// three decimals at encode time), so a dataset ingested over a mix of
// wires is byte-identical to an all-text run.
//
// Layout, all integers unsigned LEB128 varints (binary.AppendUvarint):
//
//	impression message:
//	  0x01 version(=1)
//	  cid crid url ua nonce traceID   — each: uvarint length + raw bytes
//	  traceSent                        — uvarint unix nanoseconds (0 none)
//	  eventCount                       — uvarint
//	  events: kind(byte 0=move 1=click 2=vis) atMillis(uvarint)
//	          [vis only] fraction (8-byte little-endian IEEE 754 bits)
//	  [leg]                            — uvarint 1..MaxLegs-1, only when non-zero
//
//	event update message (the text protocol's "ev:" frames):
//	  0x02 version(=1) kind atMillis [fraction]
//
// Decode mirrors the text decoder's validation exactly — including its
// quirks (a visibility fraction is rejected only when f < 0 or f > 1,
// so NaN passes both wires; malformed trace context is dropped, never
// fatal) — which is what makes the text↔binary round-trip equivalence
// fuzzable.
const (
	// BinaryMagicImpression tags a binary impression payload message.
	BinaryMagicImpression = 0x01
	// BinaryMagicEvent tags a binary interaction-update message.
	BinaryMagicEvent = 0x02
)

// binary event kind codes.
const (
	binKindMove  = 0
	binKindClick = 1
	binKindVis   = 2
)

// quantizeFraction reduces a visibility fraction to the value the text
// wire delivers: three decimals, formatted and re-parsed so the result
// is the exact float64 the collector would store for a text beacon.
func quantizeFraction(f float64) float64 {
	q, _ := strconv.ParseFloat(strconv.FormatFloat(f, 'f', 3, 64), 64)
	return q
}

// appendString appends a uvarint length prefix followed by the raw
// bytes of s.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBinaryEvent(dst []byte, e Event) []byte {
	switch e.Kind {
	case EventMouseMove:
		dst = append(dst, binKindMove)
	case EventClick:
		dst = append(dst, binKindClick)
	case EventVisibility:
		dst = append(dst, binKindVis)
	}
	dst = binary.AppendUvarint(dst, uint64(e.At.Milliseconds()))
	if e.Kind == EventVisibility {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(quantizeFraction(e.Fraction)))
	}
	return dst
}

// AppendBinary appends the binary encoding of p to dst and returns the
// extended slice. Events with kinds outside the wire vocabulary are
// skipped (the text encoder would produce tokens the decoder rejects;
// the binary encoder simply cannot express them).
func (p Payload) AppendBinary(dst []byte) []byte {
	dst = append(dst, BinaryMagicImpression, PayloadVersion)
	dst = appendString(dst, p.CampaignID)
	dst = appendString(dst, p.CreativeID)
	dst = appendString(dst, p.PageURL)
	dst = appendString(dst, p.UserAgent)
	dst = appendString(dst, p.Nonce)
	dst = appendString(dst, p.TraceID)
	ts := p.TraceSent
	if ts < 0 || p.TraceID == "" {
		ts = 0
	}
	dst = binary.AppendUvarint(dst, uint64(ts))
	n := 0
	for _, e := range p.Events {
		if wireEventKind(e.Kind) {
			n++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(n))
	for _, e := range p.Events {
		if wireEventKind(e.Kind) {
			dst = appendBinaryEvent(dst, e)
		}
	}
	if p.Leg != 0 {
		dst = binary.AppendUvarint(dst, uint64(p.Leg))
	}
	return dst
}

func wireEventKind(k EventKind) bool {
	return k == EventMouseMove || k == EventClick || k == EventVisibility
}

// EncodeBinary returns the binary encoding of p as a fresh buffer —
// the message a binary-wire beacon sends where a text-wire beacon
// sends Encode().
func (p Payload) EncodeBinary() []byte {
	return p.AppendBinary(nil)
}

// EncodeBinaryEventUpdate returns the binary interaction-update
// message for e — the binary wire's "ev:" frame.
func EncodeBinaryEventUpdate(e Event) []byte {
	return appendBinaryEvent([]byte{BinaryMagicEvent, PayloadVersion}, e)
}

// binReader walks a binary message. All methods record the first error
// and become no-ops after it, so decode loops stay branch-light.
type binReader struct {
	b   []byte
	off int
	err error
}

func (r *binReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("beacon: "+format, args...)
	}
}

func (r *binReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("binary payload truncated")
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("binary payload: bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// bytes returns the next length-prefixed field aliasing the input
// buffer — callers must copy (or intern) before the buffer is reused.
func (r *binReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail("binary payload: field length %d exceeds message", n)
		return nil
	}
	f := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return f
}

func (r *binReader) float64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b)-r.off < 8 {
		r.fail("binary payload truncated in float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

// decodeBinaryEventBody parses kind/at/fraction after the magic and
// version bytes, mirroring decodeEvent's validation: non-negative
// millisecond times, fractions rejected only when f < 0 or f > 1.
func (r *binReader) event() Event {
	kind := r.byte()
	ms := r.uvarint()
	if ms > math.MaxInt64/uint64(time.Millisecond) {
		r.fail("binary payload: event time out of range")
		return Event{}
	}
	e := Event{At: time.Duration(ms) * time.Millisecond}
	switch kind {
	case binKindMove:
		e.Kind = EventMouseMove
	case binKindClick:
		e.Kind = EventClick
	case binKindVis:
		e.Kind = EventVisibility
		f := r.float64()
		if f < 0 || f > 1 {
			r.fail("binary payload: visibility fraction %v out of range", f)
			return Event{}
		}
		e.Fraction = f
	default:
		r.fail("binary payload: unknown event kind %d", kind)
	}
	return e
}

// DecodeBinary parses a binary impression message into a standalone
// Payload: every string is copied out of b, so the caller may reuse
// the buffer immediately. The collector's hot path uses a pooled
// decoder instead (internal/collector); this allocating form serves
// tests, fuzzing, and gateways.
func DecodeBinary(b []byte) (Payload, error) {
	var p Payload
	err := DecodeBinaryInto(&p, b, func(f []byte) string { return string(f) })
	if err != nil {
		return Payload{}, err
	}
	if len(p.Events) == 0 {
		// Text decode leaves Events nil when none arrived; match it so
		// the two wires' decoded payloads are deep-equal.
		p.Events = nil
	}
	return p, nil
}

// DecodeBinaryInto parses b into p, converting the low-cardinality
// identity fields (campaign, creative, page URL, user agent) through
// intern — the seam that lets the collector substitute an
// allocation-free interning lookup. The nonce and trace ID are unique
// per impression, so interning them would only churn the caller's
// tables; they are plain-copied instead. p.Events is reused if it has
// capacity. Validation matches the text decoder: version check, event
// syntax, trace context dropped (not fatal) when malformed, then
// Payload.Validate.
func DecodeBinaryInto(p *Payload, b []byte, intern func([]byte) string) error {
	r := binReader{b: b}
	if magic := r.byte(); r.err == nil && magic != BinaryMagicImpression {
		return fmt.Errorf("beacon: binary message is not an impression payload (magic 0x%02x)", magic)
	}
	if ver := r.byte(); r.err == nil && ver != PayloadVersion {
		return fmt.Errorf("beacon: unsupported payload version %d", ver)
	}
	p.CampaignID = intern(r.bytes())
	p.CreativeID = intern(r.bytes())
	p.PageURL = intern(r.bytes())
	p.UserAgent = intern(r.bytes())
	p.Nonce = string(r.bytes())
	traceID := r.bytes()
	traceSent := r.uvarint()
	n := r.uvarint()
	if r.err != nil {
		return r.err
	}
	if n > MaxEvents || n > uint64(len(b)) {
		return fmt.Errorf("beacon: binary payload claims %d events in %d bytes", n, len(b))
	}
	p.Events = p.Events[:0]
	if n > 0 && cap(p.Events) < int(n) {
		p.Events = make([]Event, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		e := r.event()
		if r.err != nil {
			return r.err
		}
		p.Events = append(p.Events, e)
	}
	p.Leg = 0
	if r.off < len(b) { // a leg, written only when non-zero
		if leg := r.uvarint(); r.err == nil && (leg == 0 || leg >= MaxLegs) {
			r.fail("binary payload leg %d out of range", leg)
		} else {
			p.Leg = uint8(leg)
		}
	}
	if r.err != nil {
		return r.err
	}
	if r.off != len(b) {
		return fmt.Errorf("beacon: %d trailing bytes after binary payload", len(b)-r.off)
	}
	// Trace context is best-effort observability, exactly as on the
	// text wire: malformed context is dropped, never fatal.
	p.TraceID, p.TraceSent = "", 0
	if len(traceID) > 0 && len(traceID) <= 16 {
		if _, err := strconv.ParseUint(string(traceID), 16, 64); err == nil {
			p.TraceID = string(traceID)
			if traceSent <= math.MaxInt64 && traceSent > 0 {
				p.TraceSent = int64(traceSent)
			}
		}
	}
	return p.Validate()
}

// DecodeBinaryEventUpdate parses a binary interaction update. ok is
// false when the message is not an event update (it should be parsed
// as an impression payload instead), matching DecodeEventUpdate.
func DecodeBinaryEventUpdate(b []byte) (Event, bool, error) {
	if len(b) == 0 || b[0] != BinaryMagicEvent {
		return Event{}, false, nil
	}
	r := binReader{b: b, off: 1}
	if ver := r.byte(); r.err == nil && ver != PayloadVersion {
		return Event{}, true, fmt.Errorf("beacon: unsupported payload version %d", ver)
	}
	e := r.event()
	if r.err != nil {
		return Event{}, true, r.err
	}
	if r.off != len(b) {
		return Event{}, true, fmt.Errorf("beacon: %d trailing bytes after event update", len(b)-r.off)
	}
	return e, true, nil
}
