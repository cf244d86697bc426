package beacon

import (
	"math"
	"net/url"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// sampleBinaryPayload is samplePayload plus the fields the binary wire
// exercises beyond the basics: nonce, trace context, a visibility
// event.
func sampleBinaryPayload() Payload {
	p := samplePayload()
	p.Nonce = "a1b2c3d4e5f60718a1b2c3d4e5f60718"
	p.TraceID = "0123456789abcdef"
	p.TraceSent = 1459209600000000000
	p.Events = append(p.Events, Event{Kind: EventVisibility, At: 5 * time.Second, Fraction: 0.75})
	return p
}

// legPayload is a reconnect's payload: a later leg of a nonce.
func legPayload() Payload {
	p := sampleBinaryPayload()
	p.Leg = MaxLegs - 1
	return p
}

// TestLegTravelsOnlyWhenNonZero: a leg-0 payload is the bytes it was
// before legs existed on both wires, a later leg round-trips on both,
// and the text wire still writes url.Values.Encode's bytes.
func TestLegTravelsOnlyWhenNonZero(t *testing.T) {
	p := legPayload()
	for _, leg := range []uint8{0, 1, MaxLegs - 1} {
		p.Leg = leg
		text, bin := p.Encode(), p.EncodeBinary()
		if q, err := url.ParseQuery(text); err != nil || q.Encode() != text {
			t.Fatalf("leg %d: %q is not url.Values.Encode's form of itself (%v)", leg, text, err)
		}
		if strings.Contains(text, "leg=") != (leg != 0) {
			t.Fatalf("leg %d: text wire %q", leg, text)
		}
		zero := p
		zero.Leg = 0
		if want := len(zero.EncodeBinary()) + min(int(leg), 1); len(bin) != want {
			t.Fatalf("leg %d: %d binary bytes, want %d", leg, len(bin), want)
		}
		viaText, err := Decode(text)
		if err != nil || viaText.Leg != leg {
			t.Fatalf("leg %d: text decode leg %d, err %v", leg, viaText.Leg, err)
		}
		viaBinary, err := DecodeBinary(bin)
		if err != nil || !payloadsEquivalent(viaText, viaBinary) {
			t.Fatalf("leg %d: binary decode %+v (err %v), text %+v", leg, viaBinary, err, viaText)
		}
	}
	// A pooled decode target forgets the last payload's leg.
	var pooled Payload
	for _, leg := range []uint8{7, 0} {
		p.Leg = leg
		if err := DecodeBinaryInto(&pooled, p.EncodeBinary(), func(b []byte) string { return string(b) }); err != nil || pooled.Leg != leg {
			t.Fatalf("decode into a reused payload: leg %d, err %v, want %d", pooled.Leg, err, leg)
		}
	}
}

// eventsEquivalent compares event lists treating NaN fractions as
// equal (the text wire's fraction validation lets NaN through, and
// NaN != NaN under ==).
func eventsEquivalent(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].At != b[i].At {
			return false
		}
		fa, fb := a[i].Fraction, b[i].Fraction
		if fa != fb && !(math.IsNaN(fa) && math.IsNaN(fb)) {
			return false
		}
	}
	return true
}

func payloadsEquivalent(a, b Payload) bool {
	if a.CampaignID != b.CampaignID || a.CreativeID != b.CreativeID ||
		a.PageURL != b.PageURL || a.UserAgent != b.UserAgent ||
		a.Nonce != b.Nonce || a.Leg != b.Leg || a.TraceID != b.TraceID || a.TraceSent != b.TraceSent {
		return false
	}
	return eventsEquivalent(a.Events, b.Events) && (a.Events == nil) == (b.Events == nil)
}

func TestBinaryRoundTrip(t *testing.T) {
	p := sampleBinaryPayload()
	got, err := DecodeBinary(p.EncodeBinary())
	if err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("binary round trip drift:\n got %+v\nwant %+v", got, p)
	}
}

func TestBinaryMatchesTextDecode(t *testing.T) {
	cases := []Payload{
		samplePayload(),
		sampleBinaryPayload(),
		{CampaignID: "c", CreativeID: "r", PageURL: "http://x.es/"},
		{CampaignID: "c", CreativeID: "r", PageURL: "http://x.es/",
			Events: []Event{{Kind: EventVisibility, At: time.Second, Fraction: 0.123456}}},
		{CampaignID: "c", CreativeID: "r", PageURL: "http://x.es/",
			UserAgent: "ua with spaces & symbols=%",
			Events:    []Event{{Kind: EventVisibility, Fraction: 1}}},
	}
	for i, p := range cases {
		viaText, err := Decode(p.Encode())
		if err != nil {
			t.Fatalf("case %d: text decode: %v", i, err)
		}
		viaBinary, err := DecodeBinary(p.EncodeBinary())
		if err != nil {
			t.Fatalf("case %d: binary decode: %v", i, err)
		}
		if !payloadsEquivalent(viaText, viaBinary) {
			t.Fatalf("case %d: wire drift:\n text   %+v\n binary %+v", i, viaText, viaBinary)
		}
	}
}

func TestBinaryEventUpdateRoundTrip(t *testing.T) {
	for _, e := range []Event{
		{Kind: EventMouseMove, At: 123 * time.Millisecond},
		{Kind: EventClick, At: 0},
		{Kind: EventVisibility, At: time.Minute, Fraction: 0.875},
	} {
		got, ok, err := DecodeBinaryEventUpdate(EncodeBinaryEventUpdate(e))
		if err != nil || !ok {
			t.Fatalf("decode(%+v): ok=%v err=%v", e, ok, err)
		}
		if got != e {
			t.Fatalf("event round trip drift: got %+v want %+v", got, e)
		}
	}
	// An impression payload must classify as not-an-event-update.
	if _, ok, _ := DecodeBinaryEventUpdate(sampleBinaryPayload().EncodeBinary()); ok {
		t.Fatal("impression payload classified as event update")
	}
}

func TestBinaryDecodeRejects(t *testing.T) {
	valid := sampleBinaryPayload().EncodeBinary()
	cases := map[string][]byte{
		"empty":             nil,
		"bad magic":         {0x7f, PayloadVersion},
		"bad version":       {BinaryMagicImpression, 9},
		"truncated":         valid[:len(valid)-3],
		"trailing":          append(append([]byte(nil), valid...), 0),
		"leg past the mask": append(append([]byte(nil), valid...), MaxLegs),
		"bytes after a leg": append(append([]byte(nil), valid...), 1, 0),
		"huge field length": {BinaryMagicImpression, PayloadVersion, 0xff, 0xff, 0xff, 0xff, 0x7f},
		// An empty User-Agent's length spelled in two bytes: every length
		// has one encoding.
		"overlong field length": slices.Concat([]byte{BinaryMagicImpression, PayloadVersion, 1, 'c', 1, 'r', 12},
			[]byte("http://x.es/"), []byte{0x80, 0x00, 0, 0, 0, 0}),
	}
	for name, b := range cases {
		if _, err := DecodeBinary(b); err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		}
	}
	// Missing required fields parse but fail validation, like text.
	if _, err := DecodeBinary(Payload{}.EncodeBinary()); err == nil {
		t.Error("empty payload accepted")
	}
}

// TestBothWiresBoundEvents: a payload of MaxEvents events decodes on
// either wire and one more is refused by both, so an edge that re-encodes
// what it accepted never hands its collector a payload it refuses.
func TestBothWiresBoundEvents(t *testing.T) {
	p := samplePayload()
	p.Events = make([]Event, MaxEvents)
	for i := range p.Events {
		p.Events[i] = Event{Kind: EventClick}
	}
	if _, err := Decode(p.Encode()); err != nil {
		t.Fatalf("text, %d events: %v", MaxEvents, err)
	}
	if _, err := DecodeBinary(p.EncodeBinary()); err != nil {
		t.Fatalf("binary, %d events: %v", MaxEvents, err)
	}
	p.Events = append(p.Events, Event{Kind: EventClick})
	if _, err := Decode(p.Encode()); err == nil {
		t.Errorf("text accepted %d events", len(p.Events))
	}
	if _, err := DecodeBinary(p.EncodeBinary()); err == nil {
		t.Errorf("binary accepted %d events", len(p.Events))
	}
}

// FuzzDecodeBinary checks the binary impression parser never panics,
// and that anything it accepts is valid and survives a re-encode.
func FuzzDecodeBinary(f *testing.F) {
	f.Add(sampleBinaryPayload().EncodeBinary())
	f.Add(samplePayload().EncodeBinary())
	f.Add(legPayload().EncodeBinary())
	f.Add(Payload{CampaignID: "c", CreativeID: "r", PageURL: "http://x.es/"}.EncodeBinary())
	f.Add(EncodeBinaryEventUpdate(Event{Kind: EventClick, At: time.Second}))
	f.Add([]byte{})
	f.Add([]byte{BinaryMagicImpression, PayloadVersion})
	f.Fuzz(func(t *testing.T, raw []byte) {
		p, err := DecodeBinary(raw)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("DecodeBinary accepted invalid payload: %v", err)
		}
		q, err := DecodeBinary(p.EncodeBinary())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !payloadsEquivalent(p, q) {
			t.Fatalf("binary round trip drift: %+v vs %+v", p, q)
		}
		// Event updates share the event syntax; the same bytes must
		// never be readable as both message kinds.
		if _, ok, _ := DecodeBinaryEventUpdate(raw); ok {
			t.Fatal("bytes decoded as both impression and event update")
		}
	})
}

// FuzzWireEquivalence feeds arbitrary text payloads through both
// wires: whatever the text decoder accepts must, after a binary
// encode/decode round trip, match the text re-decode exactly — the
// property that lets a mixed text/binary fleet produce one coherent
// dataset.
func FuzzWireEquivalence(f *testing.F) {
	f.Add(sampleBinaryPayload().Encode())
	f.Add(samplePayload().Encode())
	f.Add(legPayload().Encode())
	f.Add("v=1&cid=c&crid=r&url=http%3A%2F%2Fx.es%2F&ev=vis%40100%3A0.5")
	f.Add("v=1&cid=c&crid=r&url=http%3A%2F%2Fx.es%2F&ev=vis%40100%3ANaN")
	f.Add("v=1&cid=c&crid=r&url=http%3A%2F%2Fx.es%2F&tr=abc&trts=5")
	f.Fuzz(func(t *testing.T, raw string) {
		p, err := Decode(raw)
		if err != nil {
			return
		}
		viaText, err := Decode(p.Encode())
		if err != nil {
			t.Fatalf("text re-decode failed: %v", err)
		}
		viaBinary, err := DecodeBinary(p.EncodeBinary())
		if err != nil {
			t.Fatalf("binary decode failed: %v", err)
		}
		if !payloadsEquivalent(viaText, viaBinary) {
			t.Fatalf("wire drift for %q:\n text   %+v\n binary %+v", raw, viaText, viaBinary)
		}
	})
}
