package beacon

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

	"adaudit/internal/bytecodec"
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
// Layout, all integers unsigned LEB128 varints (binary.AppendUvarint),
// read in their shortest form only (internal/bytecodec):
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
		dst = bytecodec.AppendFloat64(dst, quantizeFraction(e.Fraction))
	}
	return dst
}

// AppendBinary appends the binary encoding of p to dst and returns the
// extended slice. Events with kinds outside the wire vocabulary are
// skipped (the text encoder would produce tokens the decoder rejects;
// the binary encoder simply cannot express them).
func (p Payload) AppendBinary(dst []byte) []byte {
	dst = append(dst, BinaryMagicImpression, PayloadVersion)
	dst = bytecodec.AppendString(dst, p.CampaignID)
	dst = bytecodec.AppendString(dst, p.CreativeID)
	dst = bytecodec.AppendString(dst, p.PageURL)
	dst = bytecodec.AppendString(dst, p.UserAgent)
	dst = bytecodec.AppendString(dst, p.Nonce)
	dst = bytecodec.AppendString(dst, p.TraceID)
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

// event reads kind/at/fraction, mirroring decodeEvent's validation:
// non-negative millisecond times, fractions rejected only when f < 0 or
// f > 1.
func event(r *bytecodec.Reader) Event {
	kind := r.Byte()
	ms := r.Uvarint()
	if ms > math.MaxInt64/uint64(time.Millisecond) {
		r.Fail(errEventTime)
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
		f := r.Float64()
		if f < 0 || f > 1 {
			r.Fail(fmt.Errorf("visibility fraction %v out of range", f))
			return Event{}
		}
		e.Fraction = f
	default:
		r.Fail(fmt.Errorf("unknown event kind %d", kind))
	}
	return e
}

var errEventTime = errors.New("event time out of range")

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
	r := bytecodec.NewReader(b)
	if magic := r.Byte(); r.Err() == nil && magic != BinaryMagicImpression {
		return fmt.Errorf("beacon: binary message is not an impression payload (magic 0x%02x)", magic)
	}
	if ver := r.Byte(); r.Err() == nil && ver != PayloadVersion {
		return fmt.Errorf("beacon: unsupported payload version %d", ver)
	}
	p.CampaignID = intern(r.Bytes(r.Uvarint()))
	p.CreativeID = intern(r.Bytes(r.Uvarint()))
	p.PageURL = intern(r.Bytes(r.Uvarint()))
	p.UserAgent = intern(r.Bytes(r.Uvarint()))
	p.Nonce = r.String(r.Uvarint())
	traceID := r.Bytes(r.Uvarint())
	traceSent := r.Uvarint()
	n := r.Count(2) // an event is at least its kind and its time
	if n > MaxEvents {
		return fmt.Errorf("beacon: binary payload claims %d events (max %d)", n, MaxEvents)
	}
	p.Events = p.Events[:0]
	if n > 0 && cap(p.Events) < n {
		p.Events = make([]Event, 0, n)
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		p.Events = append(p.Events, event(&r))
	}
	p.Leg = 0
	if r.Len() > 0 { // a leg, written only when non-zero
		if leg := r.Uvarint(); r.Err() == nil && (leg == 0 || leg >= MaxLegs) {
			r.Fail(fmt.Errorf("leg %d out of range", leg))
		} else {
			p.Leg = uint8(leg)
		}
	}
	if r.Err() == nil && r.Len() > 0 {
		r.Fail(fmt.Errorf("%d trailing bytes", r.Len()))
	}
	if r.Err() != nil {
		return fmt.Errorf("beacon: binary payload: %w", r.Err())
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
	r := bytecodec.NewReader(b[1:])
	if ver := r.Byte(); r.Err() == nil && ver != PayloadVersion {
		return Event{}, true, fmt.Errorf("beacon: unsupported payload version %d", ver)
	}
	e := event(&r)
	if r.Err() == nil && r.Len() > 0 {
		r.Fail(fmt.Errorf("%d trailing bytes", r.Len()))
	}
	if r.Err() != nil {
		return Event{}, true, fmt.Errorf("beacon: event update: %w", r.Err())
	}
	return e, true, nil
}
