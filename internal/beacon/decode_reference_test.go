package beacon

import (
	"fmt"
	"math/rand"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// referenceDecode is Decode as it stood before the in-place scanner —
// url.ParseQuery, then Get per key — kept as the oracle for what a text
// payload decodes to.
func referenceDecode(s string) (Payload, error) {
	v, err := url.ParseQuery(s)
	if err != nil {
		return Payload{}, fmt.Errorf("beacon: parsing payload: %w", err)
	}
	ver := v.Get("v")
	if ver != strconv.Itoa(PayloadVersion) {
		return Payload{}, fmt.Errorf("beacon: unsupported payload version %q", ver)
	}
	p := Payload{
		CampaignID: v.Get("cid"),
		CreativeID: v.Get("crid"),
		PageURL:    v.Get("url"),
		UserAgent:  v.Get("ua"),
		Nonce:      v.Get("n"),
	}
	if raw := v.Get("leg"); raw != "" {
		leg, err := strconv.ParseUint(raw, 10, 8)
		if err != nil || leg >= MaxLegs {
			return Payload{}, fmt.Errorf("beacon: malformed leg %q", raw)
		}
		p.Leg = uint8(leg)
	}
	// Trace context is best-effort observability: a malformed tr/trts
	// pair is dropped rather than rejecting the impression — tracing
	// must never cost the audit a record.
	if tr := v.Get("tr"); tr != "" && len(tr) <= 16 {
		if _, err := strconv.ParseUint(tr, 16, 64); err == nil {
			p.TraceID = tr
			if ts, err := strconv.ParseInt(v.Get("trts"), 10, 64); err == nil && ts > 0 {
				p.TraceSent = ts
			}
		}
	}
	if raw := v.Get("ev"); raw != "" {
		if n := strings.Count(raw, ",") + 1; n > MaxEvents {
			return Payload{}, fmt.Errorf("beacon: payload carries %d events (max %d)", n, MaxEvents)
		}
		for _, part := range strings.Split(raw, ",") {
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

// decodeSeeds are the text payloads a scanner that is not
// url.ParseQuery gets wrong first; FuzzDecode starts from them too.
var decodeSeeds = []string{
	"v=1&cid=c&crid=r&url=http%3A%2F%2Fx.es%2F",
	"v=1&c%69d=c&crid=r&url=http%3A%2F%2Fx.es%2F",             // escaped key
	"%76=1&cid=c&crid=r&u%72l=http://x.es/",                   // escaped keys only
	"v=1&cid=first&cid=second&crid=r&url=http://x.es/",        // repeated key: first wins
	"v=1&cid=&cid=second&crid=r&url=http://x.es/",             // the first value is empty
	"v=1&cid=c&crid=r&url=http://x.es/&v=2",                   // repeated version
	"v=1&cid=c&crid=r&url=http://x.es/&c;d=x",                 // ';' in a key
	"v=1&cid=c;d&crid=r&url=http://x.es/",                     // ';' in a value
	"v=1&cid=c&crid=r&url=http://x.es/&zz%zz=1",               // bad escape in an unknown key
	"v=1&cid=c&crid=r&url=http://x.es/&zz=%zz",                // bad escape in an unknown value
	"v=1&cid=c&crid=r&url=http://x.es/&cid=%zz",               // bad escape in a repeated value
	"v=1&cid=c&crid=r&url=http://x.es/&x=%4",                  // truncated escape
	"v=1&cid=a+b&crid=r%2Bs&ua=Mozilla+5.0&url=http://x.es/",  // '+' is a space, "%2B" a plus
	"v=1&c%2Bid=x&cid=c&crid=r&url=http://x.es/",              // an escaped '+' in a key
	"&&v=1&&cid=c&crid=r&&url=http://x.es/&&",                 // empty segments
	"v=1&cid=c&crid=r&url=http://x.es/&=x&=",                  // empty keys
	"v=1&cid&crid=r&url=http://x.es/",                         // a key without '='
	"v=1&cid=c&crid=r&url=http://x.es/&n",                     // a bare optional key
	"v=1&cid=c=d&crid=r&url=http://x.es/",                     // '=' inside a value
	"v=1&cid=c&crid=r&url=http://x.es/&leg=3&n=abc",           // a non-zero leg
	"v=1&cid=c&crid=r&url=http://x.es/&leg=0",                 // leg 0 spelled out
	"v=1&cid=c&crid=r&url=http://x.es/&leg=32",                // leg past the mask
	"v=1&cid=c&crid=r&url=http://x.es/&leg=1&leg=99",          // a bad second leg is ignored
	"v=1&cid=c&crid=r&url=http://x.es/&tr=abc&trts=5",         // trace context
	"v=1&cid=c&crid=r&url=http://x.es/&tr=xyz&trts=5",         // a bad trace is dropped
	"v=1&cid=c&crid=r&url=http://x.es/&ev=click%40100,,vis@1", // an empty event
	"v=1&cid=c&crid=r&url=http://x.es/&ev=vis%40100%3A0.5",    // an escaped event
	"v=1&cid=c&crid=r&url=http%3A%2F%2Fx.es%2F%25zz",          // an escaped bad page URL
	"v=1&cid=%C3%B1&crid=r&url=http://x.es/&ua=%FF",           // non-UTF-8 after unescaping
	"v=1;cid=c", // ';' as the separator
	"",
	"&&&=%%%",
	"v=9",
}

// TestDecodeMatchesURLValuesReference: on the seed table, on encoded
// random payloads and on strings spliced from the pieces a query is made
// of, Decode and referenceDecode either both refuse or return equal
// payloads.
func TestDecodeMatchesURLValuesReference(t *testing.T) {
	check := func(raw string) bool {
		t.Helper()
		got, err := Decode(raw)
		want, werr := referenceDecode(raw)
		if (err == nil) != (werr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("Decode(%q)\n = %+v, %v\nreference %+v, %v", raw, got, err, want, werr)
		}
		return err == nil
	}
	for _, raw := range decodeSeeds {
		check(raw)
	}

	rng := rand.New(rand.NewSource(37))
	accepted := 0
	for i := 0; i < 2000; i++ {
		p := randomPayload(rng)
		p.Leg = uint8(rng.Intn(MaxLegs))
		if check(p.Encode()) {
			accepted++
		}
	}
	// Splices: the four required pairs in a random order, among random
	// pieces of what a query is made of.
	pieces := []string{
		"v=1", "v=2", "cid=c", "c%69d=d", "%76=1", "ua=a+b", "n=x", "leg=2", "leg=40", "tr=ab", "trts=9", "ev=click@5",
		"ev=vis%401%3A0.5", "url=http%3A%2F%2Fy.es%2F", "cid=%zz", "x=%", "x%zz", "&", "=", ";", "+", "%2B", "%26", "%3D", "",
		"cid", "ev=", "leg=",
	}
	for i := 0; i < 50000; i++ {
		segs := []string{"v=1", "cid=c", "crid=r", "url=http://x.es/"}
		for n := rng.Intn(6); n > 0; n-- {
			seg := pieces[rng.Intn(len(pieces))]
			if rng.Intn(3) == 0 {
				seg += pieces[rng.Intn(len(pieces))]
			}
			segs = append(segs, seg)
		}
		rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })
		if check(strings.Join(segs, "&")) {
			accepted++
		}
	}
	if accepted < 2000 {
		t.Fatalf("only %d decodable inputs: the comparison is under-tested", accepted)
	}
}

// TestDecodeAllocations pins what decoding an ordinary payload costs:
// the event slice and the three fields the sample escapes (page URL,
// user agent, events). The strings that hold no escape are substrings
// of the message.
func TestDecodeAllocations(t *testing.T) {
	raw := samplePayload().Encode()
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Decode(raw); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Errorf("Decode allocates %.0f times, want at most 4", n)
	}
}
