package beacon

import (
	"fmt"
	"math/rand"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// referenceEncode is Payload.Encode as it stood before the append-based
// rewrite — url.Values, sorted and escaped by net/url — kept as the
// oracle for the bytes on the wire.
func referenceEncode(p Payload) string {
	v := url.Values{}
	v.Set("v", strconv.Itoa(PayloadVersion))
	v.Set("cid", p.CampaignID)
	v.Set("crid", p.CreativeID)
	v.Set("url", p.PageURL)
	v.Set("ua", p.UserAgent)
	if p.Nonce != "" {
		v.Set("n", p.Nonce)
	}
	if len(p.Events) > 0 {
		evs := make([]string, len(p.Events))
		for i, e := range p.Events {
			evs[i] = referenceEncodeEvent(e)
		}
		v.Set("ev", strings.Join(evs, ","))
	}
	if p.TraceID != "" {
		v.Set("tr", p.TraceID)
		if p.TraceSent > 0 {
			v.Set("trts", strconv.FormatInt(p.TraceSent, 10))
		}
	}
	return v.Encode()
}

func referenceEncodeEvent(e Event) string {
	if e.Kind == EventVisibility {
		return fmt.Sprintf("%s@%d:%.3f", e.Kind, e.At.Milliseconds(), e.Fraction)
	}
	return fmt.Sprintf("%s@%d", e.Kind, e.At.Milliseconds())
}

// randomText draws from an alphabet heavy in what escaping must get
// right: every reserved character, space, '+', '%', control bytes,
// multi-byte UTF-8 and a lone continuation byte.
func randomText(rng *rand.Rand, max int) string {
	alphabet := []string{
		"a", "Z", "0", "9", "-", "_", ".", "~", " ", "+", "%", "&", "=", "?", "#", "/", ":", ";", ",", "@",
		"$", "!", "*", "'", "(", ")", "[", "]", "\"", "<", ">", "\\", "^", "`", "{", "|", "}",
		"\x00", "\t", "\n", "\x7f", "ñ", "広", "告", "🙂", "\x80", "\xff",
	}
	var sb strings.Builder
	for n := rng.Intn(max + 1); n > 0; n-- {
		sb.WriteString(alphabet[rng.Intn(len(alphabet))])
	}
	return sb.String()
}

func randomPayload(rng *rand.Rand) Payload {
	p := Payload{
		CampaignID: "c" + randomText(rng, 12),
		CreativeID: "cr" + randomText(rng, 12),
		PageURL:    "http://pub.example/" + randomText(rng, 24),
		UserAgent:  randomText(rng, 40),
	}
	if rng.Intn(2) == 0 {
		p.Nonce = randomText(rng, 16)
	}
	kinds := []EventKind{EventMouseMove, EventClick, EventVisibility}
	for n := rng.Intn(4); n > 0; n-- {
		e := Event{Kind: kinds[rng.Intn(len(kinds))], At: time.Duration(rng.Intn(1<<20)) * time.Millisecond}
		if e.Kind == EventVisibility {
			e.Fraction = float64(rng.Intn(1001)) / 1000
		}
		p.Events = append(p.Events, e)
	}
	if rng.Intn(2) == 0 {
		p.TraceID = strconv.FormatUint(rng.Uint64()|1, 16)
		if rng.Intn(2) == 0 {
			p.TraceSent = rng.Int63n(1<<62) + 1
		}
	}
	return p
}

// TestEncodeMatchesURLValuesReference: on random payloads the appended
// encoding is url.Values.Encode's byte for byte, and whatever the
// decoder accepts comes back equal to what went in.
func TestEncodeMatchesURLValuesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	decoded := 0
	for i := 0; i < 5000; i++ {
		p := randomPayload(rng)
		got, want := p.Encode(), referenceEncode(p)
		if got != want {
			t.Fatalf("payload %+v\n got %q\nwant %q", p, got, want)
		}
		if p.Validate() != nil {
			continue // a page URL net/url will not parse; Decode refuses it
		}
		back, err := Decode(got)
		if err != nil {
			t.Fatalf("Decode(Encode(%+v)): %v", p, err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("round trip\n got %+v\nwant %+v", back, p)
		}
		decoded++
	}
	if decoded < 1000 {
		t.Fatalf("only %d of 5000 random payloads were decodable; the round trip is under-tested", decoded)
	}

	// Field sets: every optional key present or absent, in key order.
	for _, p := range []Payload{
		{},
		{CampaignID: "c", CreativeID: "cr", PageURL: "http://p.es/"},
		{CampaignID: "c", CreativeID: "cr", PageURL: "http://p.es/", TraceSent: 5},
		{CampaignID: "c", CreativeID: "cr", PageURL: "http://p.es/", TraceID: "ab", TraceSent: -1},
		samplePayload(),
		{CampaignID: strings.Repeat("長", 400), Events: []Event{{Kind: "odd,kind@:", At: -time.Second, Fraction: 2}}},
	} {
		if got, want := p.Encode(), referenceEncode(p); got != want {
			t.Errorf("payload %+v\n got %q\nwant %q", p, got, want)
		}
	}

	for _, e := range []Event{
		{Kind: EventClick, At: 3400 * time.Millisecond},
		{Kind: EventVisibility, At: time.Millisecond, Fraction: 0.12345},
		{Kind: EventVisibility, Fraction: 1},
	} {
		if got, want := EncodeEventUpdate(e), eventMessagePrefix+referenceEncodeEvent(e); got != want {
			t.Errorf("EncodeEventUpdate(%+v) = %q, want %q", e, got, want)
		}
	}
}

// TestEncodeAllocations: the encoded string is the only allocation.
func TestEncodeAllocations(t *testing.T) {
	p := samplePayload()
	p.Nonce = NewNonce()
	if n := testing.AllocsPerRun(100, func() { _ = p.Encode() }); n > 1 {
		t.Errorf("Payload.Encode allocates %.0f times, want 1", n)
	}
}
