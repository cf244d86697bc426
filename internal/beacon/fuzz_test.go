package beacon

import (
	"net/url"
	"reflect"
	"testing"
)

// FuzzDecode checks the impression-payload parser never panics, decodes
// exactly what the url.Values-based reference decodes, and that
// anything it accepts re-encodes to an equivalent payload.
func FuzzDecode(f *testing.F) {
	f.Add(samplePayload().Encode())
	f.Add("v=1&cid=c&crid=r&url=http%3A%2F%2Fx.es%2F&ev=click%40100,move%40200")
	for _, s := range decodeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		p, err := Decode(raw)
		want, werr := referenceDecode(raw)
		if (err == nil) != (werr == nil) || !reflect.DeepEqual(p, want) {
			t.Fatalf("Decode(%q)\n = %+v, %v\nreference %+v, %v", raw, p, err, want, werr)
		}
		if err != nil {
			return
		}
		// Accepted payloads must be internally valid and re-decodable.
		if err := p.Validate(); err != nil {
			t.Fatalf("Decode accepted invalid payload: %v", err)
		}
		q, err := Decode(p.Encode())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if q.CampaignID != p.CampaignID || q.PageURL != p.PageURL || len(q.Events) != len(p.Events) {
			t.Fatalf("round trip drift: %+v vs %+v", p, q)
		}
	})
}

// FuzzDecodeEventUpdate checks the incremental-event parser never
// panics and classifies consistently.
func FuzzDecodeEventUpdate(f *testing.F) {
	f.Add("ev:click@100")
	f.Add("ev:move@0")
	f.Add("ev:")
	f.Add("not an event")
	f.Add("ev:vis@500:0.750")
	f.Fuzz(func(t *testing.T, raw string) {
		e, isEvent, err := DecodeEventUpdate(raw)
		if err == nil && isEvent {
			// Valid events survive a re-encode/re-decode cycle (the
			// textual form may differ, e.g. fraction precision).
			e2, isEvent2, err := DecodeEventUpdate(EncodeEventUpdate(e))
			if err != nil || !isEvent2 {
				t.Fatalf("re-decode of %q failed: %v", raw, err)
			}
			if e2.Kind != e.Kind || e2.At != e.At {
				t.Fatalf("round trip drift: %+v vs %+v", e, e2)
			}
		}
	})
}

// FuzzDecodeConversion checks the conversion parser never panics and
// accepted conversions round trip.
func FuzzDecodeConversion(f *testing.F) {
	f.Add(Conversion{CampaignID: "c", Action: "a", ValueCents: 1}.EncodeQuery())
	f.Add("v=1&t=conv&cid=c&action=a")
	f.Add("t=conv")
	f.Add("")
	f.Fuzz(func(t *testing.T, raw string) {
		c, err := DecodeConversion(raw)
		if err != nil {
			return
		}
		got, err := DecodeConversion(c.EncodeQuery())
		if err != nil || got != c {
			t.Fatalf("round trip drift: %+v vs %+v (%v)", c, got, err)
		}
	})
}

// plainHostSeeds are page URLs on both sides of the fast path's line,
// and the shapes a scanner that is not url.Parse gets wrong first.
var plainHostSeeds = []string{
	"http://pub.es/p", "https://www.pub.es", "http://Pub.ES:8080/a?b=c#d", "http://pub.es:/", "http://pub.es?q=/x#y",
	"http://pub.es#frag?not-a-query", "http://pub.es/a b", "http://pub.es/%7Euser", "http://pub.es/%zz",
	"http://[::1]:80/", "http://[fe80::1%25eth0]/", "http://user:pw@pub.es/", "http://pub.es:80a/", "http://pub.es:-1/",
	"HTTP://pub.es/", "Https://pub.es/", "ftp://pub.es/", "//pub.es/p", "pub.es/p", "http:///nohost", "http://:80/",
	"http://pub.es/\x00", "http://pub.es/\x7f", "http://pub.es/é", "http://pub_es/", "http://pub.es\\x", "http://a@b@c/",
	"http://pub.es/<>\"{}|^`", "http://1.2.3.4:65536/", "http://-./", "",
}

// FuzzPlainHost holds the page-URL fast path to url.Parse, one way
// only: what plainHost accepts, url.Parse accepts with the same
// Hostname(). (The reverse is not required: a URL the scan declines
// goes to url.Parse.)
func FuzzPlainHost(f *testing.F) {
	for _, s := range plainHostSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		host, ok := plainHost(raw)
		if !ok {
			return
		}
		u, err := url.Parse(raw)
		if err != nil {
			t.Fatalf("plainHost accepted %q (host %q), url.Parse: %v", raw, host, err)
		}
		if u.Hostname() != host {
			t.Fatalf("plainHost(%q) = %q, url.Parse's Hostname() = %q", raw, host, u.Hostname())
		}
	})
}
