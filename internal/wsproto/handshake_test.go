package wsproto

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"testing/iotest"
)

// AcceptKey computes the Sec-WebSocket-Accept value for a client key.
func AcceptKey(clientKey string) string {
	var buf [28]byte
	return string(appendAcceptKey(buf[:0], clientKey))
}

// countingReader counts the bytes handed out, to prove the response
// parser stops reading at its cap.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

const fuzzKey = "dGhlIHNhbXBsZSBub25jZQ=="

// dialResponseSeeds are answers a server might give the handshake that
// sent fuzzKey: the one good 101 and the ways it goes wrong.
func dialResponseSeeds() []string {
	good := "HTTP/1.1 101 Switching Protocols\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + AcceptKey(fuzzKey) + "\r\n"
	deflate := "Sec-WebSocket-Extensions: permessage-deflate; server_no_context_takeover\r\n"
	return []string{
		good + "\r\n",
		good + "\r\n\x81\x02hi", // a frame riding in the same segment
		good + deflate + "\r\n",
		good + "Sec-WebSocket-Extensions: x-unknown\r\n\r\n",
		good + "Sec-WebSocket-Extensions:\r\n" + deflate + "\r\n",
		strings.Replace(good, "Upgrade: websocket\r\n", "", 1) + "\r\n",
		strings.Replace(good, "Upgrade: websocket\r\n", "Upgrade: h2c\r\nUpgrade: WebSocket\r\n", 1) + "\r\n",
		strings.Replace(good, "Connection: Upgrade", "Connection: keep-alive, Upgrade", 1) + "\r\n",
		strings.Replace(good, "Connection: Upgrade", "Connection: keep-alive", 1) + "\r\n",
		strings.Replace(good, "Connection: Upgrade", "Connection : Upgrade", 1) + "\r\n",
		strings.Replace(good, "Connection: Upgrade", "Connection:\tUpgrade \t", 1) + "\r\n",
		strings.ToLower(good[:len("HTTP/1.1 101 Switching Protocols\r\n")]) + good[len("HTTP/1.1 101 Switching Protocols\r\n"):] + "\r\n",
		"HTTP/1.1 101 Switching Protocols\r\nupgrade: websocket\r\nconnection: upgrade\r\n" +
			"sec-websocket-accept: " + AcceptKey(fuzzKey) + "\r\n\r\n",
		strings.ReplaceAll(good, "\r\n", "\n") + "\n",
		strings.Replace(good, AcceptKey(fuzzKey), "AAAAAAAAAAAAAAAAAAAAAAAAAAA=", 1) + "\r\n",
		strings.Replace(good, "Sec-WebSocket-Accept: ", "Sec-WebSocket-Accept: bogus\r\nSec-WebSocket-Accept: ", 1) + "\r\n",
		strings.Replace(good, "Upgrade: websocket", "Upgrade:\r\n websocket", 1) + "\r\n",
		good + "X-Pad: " + strings.Repeat("a", 5000) + "\r\n\r\n",
		good + "Content-Length: 0\r\n\r\n",
		good + "Transfer-Encoding: chunked\r\n\r\n",
		good + "no colon here\r\n\r\n",
		good + "Bad\x00Name: x\r\n\r\n",
		good + "X-Ctl: a\x01b\r\n\r\n",
		good + ": empty name\r\n\r\n",
		good, // header never ends
		"HTTP/1.1 101\r\n" + good[len("HTTP/1.1 101 Switching Protocols\r\n"):] + "\r\n",
		"HTTP/1.0 101 Switching Protocols\r\n" + good[len("HTTP/1.1 101 Switching Protocols\r\n"):] + "\r\n",
		"HTTP/1.1 1015 x\r\n\r\n",
		"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 2\r\nContent-Length: 4\r\n\r\nbusy",
		"HTTP/1.1 403 Forbidden\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 10",
		"",
	}
}

// FuzzDialResponse holds the in-place 101 parser to the old
// http.ReadResponse-based logic: it never panics, never reads beyond
// its header cap (the pooled reader's size), accepts exactly what the
// reference accepts, and on acceptance leaves the reader at the first
// byte after the header.
func FuzzDialResponse(f *testing.F) {
	for _, s := range dialResponseSeeds() {
		f.Add([]byte(s), false, false)
		f.Add([]byte(s), true, true)
	}
	f.Fuzz(func(t *testing.T, raw []byte, offered, trickle bool) {
		src := &countingReader{r: bytes.NewReader(raw)}
		var r io.Reader = src
		if trickle {
			r = iotest.OneByteReader(src)
		}
		br := getHeadReader(r) // the dialer's own: the cap is its size
		_, resp, err := readUpgradeResponse(br, []byte(fuzzKey), offered)
		if resp == nil {
			defer putHeadReader(br)
		}

		want := referenceAccepts(raw, fuzzKey, offered)
		if got := err == nil; got != want {
			t.Fatalf("accepted = %v, reference = %v (err: %v)\nresponse: %q", got, want, err, raw)
		}
		if resp != nil {
			// A non-101 answer is http.ReadResponse's to read; no cap applies.
			if err == nil {
				t.Fatal("a response was returned without an error")
			}
			return
		}
		if src.n > maxHead {
			t.Fatalf("read %d bytes of a 101 answer, cap is %d", src.n, maxHead)
		}
		if err == nil {
			end, _ := referenceHeaderEnd(raw)
			rest, _ := io.ReadAll(br)
			if !bytes.Equal(rest, raw[end:]) {
				t.Fatalf("after the header the reader holds %q, want %q", rest, raw[end:])
			}
		}
	})
}

// TestDialResponseVerdicts pins the seed corpus's verdicts by name, so
// a reader sees what is accepted without running the fuzzer.
func TestDialResponseVerdicts(t *testing.T) {
	good := dialResponseSeeds()[0]
	cases := []struct {
		name    string
		mutate  func(string) string
		offered bool
		accept  bool
	}{
		{"canonical", func(s string) string { return s }, false, true},
		{"lower-case names", strings.ToLower, false, false}, // lower-cases the accept value too
		{"connection list", func(s string) string {
			return strings.Replace(s, "Connection: Upgrade", "Connection: keep-alive, Upgrade", 1)
		}, false, true},
		{"missing upgrade", func(s string) string { return strings.Replace(s, "Upgrade: websocket\r\n", "", 1) }, false, false},
		{"bad accept", func(s string) string { return strings.Replace(s, AcceptKey(fuzzKey), "x", 1) }, false, false},
		{"unoffered extension", func(s string) string {
			return strings.Replace(s, "\r\n\r\n", "\r\nSec-WebSocket-Extensions: permessage-deflate\r\n\r\n", 1)
		}, false, false},
		{"offered extension", func(s string) string {
			return strings.Replace(s, "\r\n\r\n", "\r\nSec-WebSocket-Extensions: permessage-deflate\r\n\r\n", 1)
		}, true, true},
		{"folded header", func(s string) string { return strings.Replace(s, "Upgrade: websocket", "Upgrade:\r\n websocket", 1) }, false, false},
		{"oversized header", func(s string) string {
			return strings.Replace(s, "\r\n\r\n", "\r\nX-Pad: "+strings.Repeat("a", maxHead)+"\r\n\r\n", 1)
		}, false, false},
		{"content-length on 101", func(s string) string { return strings.Replace(s, "\r\n\r\n", "\r\nContent-Length: 0\r\n\r\n", 1) }, false, false},
		{"HTTP/1.0", func(s string) string { return strings.Replace(s, "HTTP/1.1", "HTTP/1.0", 1) }, false, false},
	}
	for _, tc := range cases {
		raw := tc.mutate(good)
		br := bufio.NewReaderSize(strings.NewReader(raw), maxHead)
		compress, _, err := readUpgradeResponse(br, []byte(fuzzKey), tc.offered)
		if got := err == nil; got != tc.accept {
			t.Errorf("%s: accepted = %v, want %v (err: %v)", tc.name, got, tc.accept, err)
		}
		if ref := referenceAccepts([]byte(raw), fuzzKey, tc.offered); ref != tc.accept {
			t.Errorf("%s: reference accepts = %v, want %v", tc.name, ref, tc.accept)
		}
		if tc.name == "offered extension" && !compress {
			t.Errorf("%s: compression not agreed", tc.name)
		}
	}
}

// TestDialRejectionCarriesResponse: a non-101 answer still comes back
// whole, headers and buffered body included — the Retry-After path of
// the beacon client reads it.
func TestDialRejectionCarriesResponse(t *testing.T) {
	raw := "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 2\r\nContent-Length: 4\r\n\r\nbusy"
	br := bufio.NewReaderSize(strings.NewReader(raw), maxHead)
	_, resp, err := readUpgradeResponse(br, []byte(fuzzKey), false)
	if err == nil || resp == nil {
		t.Fatalf("resp = %v, err = %v; want the rejection and an error", resp, err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "2" {
		t.Fatalf("status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if body, _ := io.ReadAll(resp.Body); string(body) != "busy" {
		t.Fatalf("body = %q", body)
	}
}

// captureConn records what the dialer writes and answers with a canned
// rejection so Dial returns.
type captureConn struct {
	net.Conn // nil: only the methods below are reached
	wrote    bytes.Buffer
	writes   int
	answer   *strings.Reader
}

func (c *captureConn) Write(p []byte) (int, error) { c.writes++; return c.wrote.Write(p) }
func (c *captureConn) Read(p []byte) (int, error)  { return c.answer.Read(p) }
func (c *captureConn) Close() error                { return nil }

// TestDialRequestBytesMatchReference: the appended request is the
// fmt-built one byte for byte (the random key aside), in one Write.
func TestDialRequestBytesMatchReference(t *testing.T) {
	cases := []struct {
		url string
		d   Dialer
	}{
		{"ws://collector.example:8080/beacon", Dialer{}},
		{"ws://collector.example", Dialer{EnableCompression: true}},
		{"ws://127.0.0.1:9/trunk?token=a%20b&x=1", Dialer{Header: http.Header{"Origin": {"https://ads.example.com"}}}},
		{"ws://[::1]:9/p%2Fq", Dialer{Header: http.Header{"User-Agent": {"Mozilla/5.0 Chrome/49.0", "second"}}}},
	}
	for _, tc := range cases {
		nc := &captureConn{answer: strings.NewReader("HTTP/1.1 403 Forbidden\r\nContent-Length: 0\r\n\r\n")}
		tc.d.NetDial = func(context.Context, string, string) (net.Conn, error) { return nc, nil }
		if _, resp, err := tc.d.Dial(context.Background(), tc.url); err == nil || resp == nil || resp.StatusCode != http.StatusForbidden {
			t.Fatalf("%s: resp = %v, err = %v; want the 403", tc.url, resp, err)
		}
		got := nc.wrote.String()
		_, after, _ := strings.Cut(got, "Sec-WebSocket-Key: ")
		key, _, _ := strings.Cut(after, "\r\n")
		if !referenceValidKey(key) {
			t.Fatalf("%s: handshake key %q is not 16 base64 bytes", tc.url, key)
		}
		u, err := url.Parse(tc.url)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceRequest(&tc.d, u, key); got != want {
			t.Errorf("%s: request\n got %q\nwant %q", tc.url, got, want)
		}
		if nc.writes != 1 {
			t.Errorf("%s: request went out in %d writes, want 1", tc.url, nc.writes)
		}
	}
}

// TestUpgradeResponseBytesMatchReference reads the server's raw 101 off
// a TCP socket.
func TestUpgradeResponseBytesMatchReference(t *testing.T) {
	for _, compress := range []bool{false, true} {
		upgrader := &Upgrader{EnableCompression: compress}
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if conn, err := upgrader.Upgrade(w, r); err == nil {
				conn.NetConn().Close()
			}
		}))
		nc, err := net.Dial("tcp", srv.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		d := Dialer{EnableCompression: compress}
		u, _ := url.Parse("ws://" + srv.Listener.Addr().String() + "/")
		if _, err := nc.Write(d.appendRequest(nil, u, []byte(fuzzKey))); err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(nc)
		nc.Close()
		srv.Close()
		extension := ""
		if compress {
			extension = offerExtension
		}
		if want := referenceUpgradeResponse(fuzzKey, extension); string(got) != want {
			t.Errorf("compress=%v: response\n got %q\nwant %q", compress, got, want)
		}
	}
}

// TestUpgradeChecksTable drives every server-side handshake check
// through a real net/http server and holds status and body to what
// they have always been.
func TestUpgradeChecksTable(t *testing.T) {
	upgrader := &Upgrader{CheckOrigin: func(r *http.Request) bool { return r.Header.Get("Origin") != "http://evil.example" }}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if conn, err := upgrader.Upgrade(w, r); err == nil {
			conn.NetConn().Close()
		}
	}))
	defer srv.Close()

	base := func() http.Header {
		return http.Header{
			"Connection":            {"Upgrade"},
			"Upgrade":               {"websocket"},
			"Sec-Websocket-Version": {"13"},
			"Sec-Websocket-Key":     {fuzzKey},
		}
	}
	with := func(name string, vals ...string) http.Header {
		h := base()
		if len(vals) == 0 {
			h.Del(name)
		} else {
			h[name] = vals
		}
		return h
	}
	cases := []struct {
		name   string
		method string
		header http.Header
		status int
		body   string
	}{
		{"accepted", "GET", base(), 101, ""},
		{"token list", "GET", with("Connection", "keep-alive, Upgrade"), 101, ""},
		{"token case and padding", "GET", with("Connection", " \tuPGRADE  "), 101, ""},
		{"token in second header", "GET", with("Upgrade", "h2c", "WebSocket"), 101, ""},
		{"token as substring", "GET", with("Upgrade", "websocketx"), 400, "websocket: missing Upgrade: websocket\n"},
		{"token split by space", "GET", with("Connection", "keep-alive Upgrade"), 400, "websocket: missing Connection: Upgrade\n"},
		{"empty list elements", "GET", with("Connection", ",,"), 400, "websocket: missing Connection: Upgrade\n"},
		{"post", "POST", base(), 405, "websocket: method not GET\n"},
		{"no connection", "GET", with("Connection"), 400, "websocket: missing Connection: Upgrade\n"},
		{"no upgrade", "GET", with("Upgrade"), 400, "websocket: missing Upgrade: websocket\n"},
		{"version 8", "GET", with("Sec-Websocket-Version", "8"), 426, "websocket: unsupported version\n"},
		{"no key", "GET", with("Sec-Websocket-Key"), 400, "websocket: missing Sec-WebSocket-Key\n"},
		{"15-byte key", "GET", with("Sec-Websocket-Key", "AAAAAAAAAAAAAAAAAAAA"), 400, "websocket: bad Sec-WebSocket-Key\n"},
		{"17-byte key", "GET", with("Sec-Websocket-Key", "AAAAAAAAAAAAAAAAAAAAAAA="), 400, "websocket: bad Sec-WebSocket-Key\n"},
		{"18-byte key", "GET", with("Sec-Websocket-Key", "AAAAAAAAAAAAAAAAAAAAAAAA"), 400, "websocket: bad Sec-WebSocket-Key\n"},
		{"24 characters, not base64", "GET", with("Sec-Websocket-Key", "!!!!!!!!!!!!!!!!!!!!!!=="), 400, "websocket: bad Sec-WebSocket-Key\n"},
		{"bad padding", "GET", with("Sec-Websocket-Key", "AAAAAAAAAAAAAAAAAAAAAA=A"), 400, "websocket: bad Sec-WebSocket-Key\n"},
		{"origin rejected", "GET", with("Origin", "http://evil.example"), 403, "websocket: origin not allowed\n"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, srv.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header = tc.header
		key := tc.header.Get("Sec-Websocket-Key")
		if key != "" && validClientKey(key) != referenceValidKey(key) {
			t.Errorf("%s: validClientKey(%q) = %v, reference disagrees", tc.name, key, validClientKey(key))
		}
		for _, h := range []struct{ name, token string }{{"Connection", "upgrade"}, {"Upgrade", "websocket"}} {
			if got, want := headerContainsToken(tc.header, h.name, h.token), referenceContainsToken(tc.header, h.name, h.token); got != want {
				t.Errorf("%s: headerContainsToken(%s) = %v, reference %v", tc.name, h.name, got, want)
			}
		}
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var body []byte
		if resp.StatusCode != http.StatusSwitchingProtocols {
			body, _ = io.ReadAll(resp.Body)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status || string(body) != tc.body {
			t.Errorf("%s: status %d body %q, want %d %q", tc.name, resp.StatusCode, body, tc.status, tc.body)
		}
		if tc.status == http.StatusUpgradeRequired && resp.Header.Get("Sec-Websocket-Version") != "13" {
			t.Errorf("%s: 426 without Sec-WebSocket-Version: 13", tc.name)
		}
	}
}

func TestAcceptKeyAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins do not hold under -race")
	}
	if n := testing.AllocsPerRun(100, func() { AcceptKey(fuzzKey) }); n > 1 {
		t.Errorf("AcceptKey allocates %.0f times, want at most 1 (its result)", n)
	}
	hdr := []byte(dialResponseSeeds()[0])
	if n := testing.AllocsPerRun(100, func() {
		if _, err := checkUpgradeResponse(hdr, []byte(fuzzKey), false); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("checking a 101 answer allocates %.0f times, want 0", n)
	}
}
