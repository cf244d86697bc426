package beacon

import (
	"math/rand"
	"net/url"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func samplePayload() Payload {
	return Payload{
		CampaignID: "Research-010",
		CreativeID: "creative-728x90",
		PageURL:    "http://www.ciencia123.es/articulo?id=7&ref=home",
		UserAgent:  "Mozilla/5.0 (Windows NT 10.0) Chrome/49.0",
		Events: []Event{
			{Kind: EventMouseMove, At: 1200 * time.Millisecond},
			{Kind: EventClick, At: 3400 * time.Millisecond},
		},
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	p := samplePayload()
	got, err := Decode(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.CampaignID != p.CampaignID || got.CreativeID != p.CreativeID ||
		got.PageURL != p.PageURL || got.UserAgent != p.UserAgent {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if len(got.Events) != 2 || got.Events[0] != p.Events[0] || got.Events[1] != p.Events[1] {
		t.Fatalf("events mismatch: %+v", got.Events)
	}
}

// Property: encode/decode round-trips arbitrary printable field values.
// The generator is seeded, so a failure reproduces; a page URL it makes
// that Validate refuses (a bare '%' is not a URL) is no round trip to
// check, and is skipped rather than failed.
func TestPayloadRoundTripProperty(t *testing.T) {
	checked := 0
	err := quick.Check(func(cid, crid, host, ua string) bool {
		clean := func(s, fallback string) string {
			s = strings.Map(func(r rune) rune {
				if r < 0x20 || r > 0x7E {
					return -1
				}
				return r
			}, s)
			if s == "" {
				return fallback
			}
			return s
		}
		p := Payload{
			CampaignID: clean(cid, "c"),
			CreativeID: clean(crid, "cr"),
			PageURL:    "http://example.es/" + clean(host, "x"),
			UserAgent:  clean(ua, ""),
		}
		if p.Validate() != nil {
			return true
		}
		checked++
		got, err := Decode(p.Encode())
		if err != nil {
			return false
		}
		return got.CampaignID == p.CampaignID && got.CreativeID == p.CreativeID &&
			got.PageURL == p.PageURL && got.UserAgent == p.UserAgent
	}, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	if checked < 100 {
		t.Fatalf("only %d of 200 generated payloads were valid; the property is under-tested", checked)
	}
}

func TestDecodeRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"wrong version":    "v=9&cid=c&crid=r&url=http://x.es/",
		"missing version":  "cid=c&crid=r&url=http://x.es/",
		"missing campaign": "v=1&crid=r&url=http://x.es/",
		"missing creative": "v=1&cid=c&url=http://x.es/",
		"missing url":      "v=1&cid=c&crid=r",
		"bad event":        "v=1&cid=c&crid=r&url=http://x.es/&ev=hover%401000",
		"bad event time":   "v=1&cid=c&crid=r&url=http://x.es/&ev=click%40-5",
		"no event sep":     "v=1&cid=c&crid=r&url=http://x.es/&ev=click1000",
		"bad query":        "v=1&cid=%zz",
		"leg past mask":    "v=1&cid=c&crid=r&url=http://x.es/&leg=32",
		"leg not a number": "v=1&cid=c&crid=r&url=http://x.es/&leg=one",
		"negative leg":     "v=1&cid=c&crid=r&url=http://x.es/&leg=-1",
	}
	for name, raw := range cases {
		if _, err := Decode(raw); err == nil {
			t.Errorf("%s: Decode accepted %q", name, raw)
		}
	}
}

func TestPublisherExtraction(t *testing.T) {
	cases := []struct {
		url, want string
	}{
		{"http://www.futbolhoy123.es/noticia/42", "futbolhoy123.es"},
		{"https://Ciencia456.ES/path", "ciencia456.es"},
		{"http://foro789.net", "foro789.net"},
		{"http://www.sub.blog321.com/x?y=1", "sub.blog321.com"},
	}
	for _, c := range cases {
		p := Payload{CampaignID: "c", CreativeID: "r", PageURL: c.url}
		got, err := p.Publisher()
		if err != nil {
			t.Fatalf("Publisher(%q): %v", c.url, err)
		}
		if got != c.want {
			t.Errorf("Publisher(%q) = %q, want %q", c.url, got, c.want)
		}
	}
	bad := Payload{CampaignID: "c", CreativeID: "r", PageURL: "not-a-url"}
	if _, err := bad.Publisher(); err == nil {
		t.Error("Publisher accepted URL without host")
	}
}

// TestPlainHostChangesNoVerdict: with the page-URL fast path in front,
// Validate and Publisher answer as the url.Parse-only expressions they
// replaced did — on the seed table and on strings assembled at random
// from the pieces URLs are made of.
func TestPlainHostChangesNoVerdict(t *testing.T) {
	check := func(raw string) (fast bool) {
		t.Helper()
		p := Payload{CampaignID: "c", CreativeID: "r", PageURL: raw}
		u, perr := url.Parse(raw)
		if verr := p.Validate(); raw != "" && (verr != nil) != (perr != nil) {
			t.Fatalf("Validate(%q) = %v, url.Parse: %v", raw, verr, perr)
		}
		want := ""
		if perr == nil {
			want = strings.TrimPrefix(strings.ToLower(u.Hostname()), "www.")
		}
		got, err := p.Publisher()
		if got != want || (err == nil) != (want != "") {
			t.Fatalf("Publisher(%q) = %q, %v; the url.Parse expression gives %q (parse error %v)", raw, got, err, want, perr)
		}
		_, fast = plainHost(raw)
		return fast
	}
	for _, raw := range plainHostSeeds {
		check(raw)
	}
	pieces := []string{
		"http://", "https://", "HTTP://", "ftp://", "//", "/", "?", "#", ":", "@", "%", "%41", "%zz", "[", "]", "::1",
		"pub", "WWW.", "www.", ".es", "-", "_", "80", "65536", " ", "\x00", "\x7f", "\xff", "é", "a=b&c", "<", "\\",
	}
	rng := rand.New(rand.NewSource(20))
	fast := 0
	for i := 0; i < 200000; i++ {
		var b strings.Builder
		for n := 1 + rng.Intn(7); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		if check(b.String()) {
			fast++
		}
	}
	if fast < 1000 {
		t.Fatalf("only %d of 200000 random strings took the fast path: the generator misses it", fast)
	}
	ordinary := samplePayload()
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ordinary.Publisher(); err != nil || ordinary.Validate() != nil {
			t.Fatal("ordinary page URL refused")
		}
	}); n != 0 {
		t.Fatalf("Validate + Publisher of an ordinary page URL: %v allocs, want 0", n)
	}
}

func TestEventUpdateRoundTrip(t *testing.T) {
	e := Event{Kind: EventClick, At: 2500 * time.Millisecond}
	got, isEvent, err := DecodeEventUpdate(EncodeEventUpdate(e))
	if err != nil || !isEvent {
		t.Fatalf("decode = %v, %v", isEvent, err)
	}
	if got != e {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestEventUpdateDetection(t *testing.T) {
	// A full payload is not an event update.
	if _, isEvent, err := DecodeEventUpdate(samplePayload().Encode()); isEvent || err != nil {
		t.Fatalf("payload misdetected as event: %v, %v", isEvent, err)
	}
	// Malformed updates are detected as events but error.
	for _, raw := range []string{"ev:click", "ev:hover@100", "ev:click@abc", "ev:click@-1"} {
		if _, isEvent, err := DecodeEventUpdate(raw); !isEvent || err == nil {
			t.Errorf("DecodeEventUpdate(%q) = (%v, %v), want detected error", raw, isEvent, err)
		}
	}
}

func TestValidate(t *testing.T) {
	p := samplePayload()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func(*Payload){
		func(p *Payload) { p.CampaignID = "" },
		func(p *Payload) { p.CreativeID = "" },
		func(p *Payload) { p.PageURL = "" },
	} {
		q := samplePayload()
		mutate(&q)
		if err := q.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", q)
		}
	}
}
