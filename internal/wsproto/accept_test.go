package wsproto

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"
)

// Handshake heads as two browsers send them (Chrome 49, Firefox 45 —
// the paper's era — to a collector on another origin than the page).
const (
	chromeHead = "GET /beacon?cid=Football-010 HTTP/1.1\r\n" +
		"Host: collector.example.com:8080\r\n" +
		"Connection: Upgrade\r\n" +
		"Pragma: no-cache\r\n" +
		"Cache-Control: no-cache\r\n" +
		"User-Agent: Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/49.0.2623.87 Safari/537.36\r\n" +
		"Upgrade: websocket\r\n" +
		"Origin: http://futbolhoy.es\r\n" +
		"Sec-WebSocket-Version: 13\r\n" +
		"Accept-Encoding: gzip, deflate, sdch\r\n" +
		"Accept-Language: es-ES,es;q=0.8,en;q=0.6\r\n" +
		"Cookie: _ga=GA1.2.1234567890.1459252800; sid=abc123\r\n" +
		"Sec-WebSocket-Key: " + fuzzKey + "\r\n" +
		"Sec-WebSocket-Extensions: permessage-deflate; client_max_window_bits\r\n\r\n"
	firefoxHead = "GET /beacon HTTP/1.1\r\n" +
		"Host: collector.example.com:8080\r\n" +
		"User-Agent: Mozilla/5.0 (X11; Ubuntu; Linux x86_64; rv:45.0) Gecko/20100101 Firefox/45.0\r\n" +
		"Accept: text/html,application/xhtml+xml,application/xml;q=0.9,*/*;q=0.8\r\n" +
		"Accept-Language: en-US,en;q=0.5\r\n" +
		"Accept-Encoding: gzip, deflate\r\n" +
		"Sec-WebSocket-Version: 13\r\n" +
		"Origin: http://futbolhoy.es\r\n" +
		"Sec-WebSocket-Extensions: permessage-deflate\r\n" +
		"Sec-WebSocket-Key: x3JJHMbDL1EzLkh9GBhXDw==\r\n" +
		"Cookie: sid=abc123\r\n" +
		"Connection: keep-alive, Upgrade\r\n" +
		"Pragma: no-cache\r\n" +
		"Cache-Control: no-cache\r\n" +
		"Upgrade: websocket\r\n\r\n"
	// goHead is what Dialer sends.
	goHead = "GET /beacon HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n" +
		"Sec-WebSocket-Key: " + fuzzKey + "\r\nSec-WebSocket-Version: 13\r\n\r\n"
)

// upgradeVerdicts names request heads and says which the Front answers
// in place; the rest are net/http's. They seed FuzzUpgradeRequest.
var upgradeVerdicts = []struct {
	name    string
	head    string
	inPlace bool
}{
	{"go dialer", goHead, true},
	{"chrome", chromeHead, true},
	{"firefox", firefoxHead, true},
	{"frame in the same segment", goHead + "\x81\x82\x01\x02\x03\x04ij", true},
	{"bare LF", strings.ReplaceAll(goHead, "\r\n", "\n"), true},
	{"lower-case names", strings.ToLower(goHead[:len(goHead)-len("\r\n\r\n")-len("Sec-WebSocket-Version: 13")]) + "sec-websocket-version: 13\r\n\r\n", false}, // the key too
	{"lower-case names, key kept", strings.Replace(goHead, "Sec-WebSocket-Key", "sec-websocket-key", 1), true},
	{"token case and padding", strings.Replace(goHead, "Connection: Upgrade", "Connection:\t uPGRADE \t", 1), true},
	{"upgrade token in second field", strings.Replace(goHead, "Upgrade: websocket", "Upgrade: h2c\r\nUpgrade: WebSocket", 1), true},
	{"offer with a parameter we decline", strings.Replace(goHead, "\r\n\r\n", "\r\nSec-WebSocket-Extensions: permessage-deflate; server_max_window_bits=10, permessage-deflate\r\n\r\n", 1), true},
	{"unknown extension", strings.Replace(goHead, "\r\n\r\n", "\r\nSec-WebSocket-Extensions: x-webkit-deflate-frame\r\n\r\n", 1), true},
	{"empty query", strings.Replace(goHead, "/beacon", "/beacon?", 1), true},
	{"empty origin first", strings.Replace(goHead, "\r\n\r\n", "\r\nOrigin:\r\nOrigin: http://second.example\r\n\r\n", 1), true},
	{"version 13 first", strings.Replace(goHead, "\r\n\r\n", "\r\nSec-WebSocket-Version: 8\r\n\r\n", 1), true},

	{"other path", strings.Replace(goHead, "/beacon", "/healthz", 1), false},
	{"path prefix", strings.Replace(goHead, "/beacon", "/beacon/x", 1), false},
	{"escaped path", strings.Replace(goHead, "/beacon", "/%62eacon", 1), false},
	{"uncleaned path", strings.Replace(goHead, "/beacon", "/./beacon", 1), false},
	{"absolute-form target", strings.Replace(goHead, "/beacon", "http://127.0.0.1:8080/beacon", 1), false},
	{"asterisk-form target", strings.Replace(goHead, "/beacon", "*", 1), false},
	{"control byte in query", strings.Replace(goHead, "/beacon", "/beacon?a=\x01", 1), false},
	{"space in target", strings.Replace(goHead, "/beacon", "/beacon?a b", 1), false},
	{"post", strings.Replace(goHead, "GET", "POST", 1), false},
	{"lower-case method", strings.Replace(goHead, "GET", "get", 1), false},
	{"HTTP/1.0", strings.Replace(goHead, "HTTP/1.1", "HTTP/1.0", 1), false},
	{"two spaces before the version", strings.Replace(goHead, " HTTP/1.1", "  HTTP/1.1", 1), false},
	{"no target", "GET HTTP/1.1\r\n" + goHead[len("GET /beacon HTTP/1.1\r\n"):], false},
	{"leading blank line", "\r\n" + goHead, false},
	{"no host", strings.Replace(goHead, "Host: 127.0.0.1:8080\r\n", "", 1), false},
	{"two hosts", strings.Replace(goHead, "Host: 127.0.0.1:8080\r\n", "Host: a\r\nHost: b\r\n", 1), false},
	{"host with a space", strings.Replace(goHead, "Host: 127.0.0.1:8080", "Host: a b", 1), false},
	{"no connection token", strings.Replace(goHead, "Connection: Upgrade", "Connection: keep-alive", 1), false},
	{"no upgrade field", strings.Replace(goHead, "Upgrade: websocket\r\n", "", 1), false},
	{"upgrade token as substring", strings.Replace(goHead, "Upgrade: websocket", "Upgrade: websocketx", 1), false},
	{"version 8", strings.Replace(goHead, "Version: 13", "Version: 8", 1), false},
	{"version 8 first", strings.Replace(goHead, "Sec-WebSocket-Version: 13", "Sec-WebSocket-Version: 8\r\nSec-WebSocket-Version: 13", 1), false},
	{"no version", strings.Replace(goHead, "Sec-WebSocket-Version: 13\r\n", "", 1), false},
	{"no key", strings.Replace(goHead, "Sec-WebSocket-Key: "+fuzzKey+"\r\n", "", 1), false},
	{"short key", strings.Replace(goHead, fuzzKey, "AAAAAAAAAAAAAAAAAAAA", 1), false},
	{"bad key first", strings.Replace(goHead, "Sec-WebSocket-Key: ", "Sec-WebSocket-Key: bogus\r\nSec-WebSocket-Key: ", 1), false},
	{"space before the colon", strings.Replace(goHead, "Connection: Upgrade", "Connection : Upgrade", 1), false},
	{"folded field", strings.Replace(goHead, "Upgrade: websocket", "Upgrade:\r\n websocket", 1), false},
	{"no colon", strings.Replace(goHead, "\r\n\r\n", "\r\nno colon here\r\n\r\n", 1), false},
	{"empty name", strings.Replace(goHead, "\r\n\r\n", "\r\n: empty name\r\n\r\n", 1), false},
	{"control byte in a name", strings.Replace(goHead, "\r\n\r\n", "\r\nBad\x00Name: x\r\n\r\n", 1), false},
	{"control byte in a value", strings.Replace(goHead, "\r\n\r\n", "\r\nX-Ctl: a\x01b\r\n\r\n", 1), false},
	{"bare CR in a value", strings.Replace(goHead, "\r\n\r\n", "\r\nX-Ctl: a\rb\r\n\r\n", 1), false},
	{"content-length", strings.Replace(goHead, "\r\n\r\n", "\r\nContent-Length: 0\r\n\r\n", 1), false},
	{"transfer-encoding", strings.Replace(goHead, "\r\n\r\n", "\r\nTransfer-Encoding: chunked\r\n\r\n", 1), false},
	{"expect", strings.Replace(goHead, "\r\n\r\n", "\r\nExpect: 100-continue\r\n\r\n", 1), false},
	{"trailer", strings.Replace(goHead, "\r\n\r\n", "\r\nTrailer: X-Sum\r\n\r\n", 1), false},
	{"over 4 KiB", strings.Replace(goHead, "\r\n\r\n", "\r\nCookie: "+strings.Repeat("a", maxHead)+"\r\n\r\n", 1), false},
	{"plain GET", "GET /beacon HTTP/1.1\r\nHost: a\r\n\r\n", false},
	{"unterminated", goHead[:len(goHead)-2], false},
	{"empty", "", false},
}

// memConn is a connection whose peer has already sent everything it
// will: reads drain in, writes collect in out.
type memConn struct {
	in     io.Reader
	out    bytes.Buffer
	closed bool
}

func (c *memConn) Read(p []byte) (int, error)       { return c.in.Read(p) }
func (c *memConn) Write(p []byte) (int, error)      { return c.out.Write(p) }
func (c *memConn) Close() error                     { c.closed = true; return nil }
func (c *memConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *memConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// inPlaceVerdict is what the Front made of one connection's bytes.
type inPlaceVerdict struct {
	conn     *Conn    // not nil: answered in place
	handed   net.Conn // not nil: handed to net/http
	answer   []byte   // what the Front wrote
	origin   string   // what admission was asked
	admitted bool     // whether it was asked at all
}

// runInPlace puts raw through a Front's handshake over a memConn.
func runInPlace(raw []byte, trickle bool, u *Upgrader) inPlaceVerdict {
	var v inPlaceVerdict
	f := NewFront(nil, map[string]Route{"/beacon": {
		Upgrader: u,
		Admit:    func(origin string) bool { v.origin, v.admitted = origin, true; return true },
	}})
	f.fallback = make(chan net.Conn, 1) // nobody is accepting
	nc := &memConn{in: bytes.NewReader(raw)}
	if trickle {
		nc.in = iotest.OneByteReader(nc.in)
	}
	v.conn, _, _ = f.handshake(nc, getHeadReader(nc))
	select {
	case v.handed = <-f.fallback:
	default:
	}
	v.answer = nc.out.Bytes()
	return v
}

// slowPath is the reference the in-place parser is held to, live: an
// http.Server that routes with a ServeMux and upgrades with
// Upgrader.Upgrade, reached over in-memory pipes.
type slowPath struct {
	conns chan net.Conn
	seen  chan slowVerdict
}

// slowVerdict is what the /beacon handler saw of one request.
type slowVerdict struct {
	origin   string
	upgraded bool
	compress bool
}

func (s *slowPath) Accept() (net.Conn, error) { return <-s.conns, nil }
func (s *slowPath) Close() error              { return nil }
func (s *slowPath) Addr() net.Addr            { return &net.TCPAddr{} }

var (
	slowPathOnce sync.Once
	slowPaths    map[bool]*slowPath // by Upgrader.EnableCompression
)

func slowPathFor(compression bool) *slowPath {
	slowPathOnce.Do(func() {
		slowPaths = map[bool]*slowPath{}
		for _, compression := range []bool{false, true} {
			s := &slowPath{conns: make(chan net.Conn), seen: make(chan slowVerdict, 1)}
			u := &Upgrader{EnableCompression: compression}
			mux := http.NewServeMux()
			mux.HandleFunc("/beacon", func(w http.ResponseWriter, r *http.Request) {
				v := slowVerdict{origin: r.Header.Get("Origin")}
				if conn, err := u.Upgrade(w, r); err == nil {
					v.upgraded, v.compress = true, conn.compress
					conn.NetConn().Close()
				}
				s.seen <- v
			})
			go (&http.Server{Handler: mux}).Serve(s)
			slowPaths[compression] = s
		}
	})
	return slowPaths[compression]
}

// answer sends head down the slow path and returns the response head
// and what the handler saw (ok false when it was never reached).
func (s *slowPath) answer(head []byte) (resp []byte, v slowVerdict, ok bool) {
	client, server := net.Pipe()
	defer client.Close()
	s.conns <- server
	go client.Write(head) // net.Pipe is synchronous
	_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(client)
	for {
		line, err := br.ReadBytes('\n')
		resp = append(resp, line...)
		if err != nil || len(bytes.TrimRight(line, "\r\n")) == 0 {
			break
		}
	}
	select {
	case v = <-s.seen:
		return resp, v, true
	case <-time.After(100 * time.Millisecond):
		return resp, v, false
	}
}

// FuzzUpgradeRequest holds the Front's in-place handshake to the live
// slow path. For any bytes: nothing is lost (an accepted connection
// keeps what followed its head, a handed-over one replays every byte);
// and if the Front answers in place, net/http routes the same head to
// the same path and Upgrade accepts it, with the same 101, the same
// Origin before admission and the same compression — never laxer.
func FuzzUpgradeRequest(f *testing.F) {
	for _, tc := range upgradeVerdicts {
		f.Add([]byte(tc.head), false, true)
		f.Add([]byte(tc.head), true, false)
	}
	f.Fuzz(func(t *testing.T, raw []byte, trickle, compression bool) {
		got := runInPlace(raw, trickle, &Upgrader{EnableCompression: compression})
		switch {
		case got.handed != nil:
			if len(got.answer) != 0 {
				t.Fatalf("wrote %q to a connection handed to net/http", got.answer)
			}
			if replay, _ := io.ReadAll(got.handed); !bytes.Equal(replay, raw) {
				t.Fatalf("handed-over connection replays %q, want %q", replay, raw)
			}
			return
		case got.conn == nil:
			if end := bytes.Index(raw, []byte("\n\r\n")); end >= 0 && end < maxHead-3 {
				if alt := bytes.Index(raw, []byte("\n\n")); alt < 0 || alt > end {
					t.Fatalf("dropped a connection whose head was complete: %q", raw)
				}
			}
			return
		}

		br := bufio.NewReaderSize(bytes.NewReader(raw), maxHead)
		head, err := peekHeader(br)
		if err != nil {
			t.Fatalf("answered a head that does not end: %v", err)
		}
		if rest, _ := io.ReadAll(got.conn.br); !bytes.Equal(rest, raw[len(head):]) {
			t.Fatalf("after the head the connection holds %q, want %q", rest, raw[len(head):])
		}
		want, seen, reached := slowPathFor(compression).answer(head)
		if !reached || !seen.upgraded {
			t.Fatalf("answered in place, but net/http says %q (handler reached: %v)\nhead: %q", want, reached, head)
		}
		if !bytes.Equal(got.answer, want) {
			t.Fatalf("101 in place %q, from Upgrade %q\nhead: %q", got.answer, want, head)
		}
		if !got.admitted || got.origin != seen.origin {
			t.Fatalf("admission saw origin %q (asked: %v), the handler %q\nhead: %q", got.origin, got.admitted, seen.origin, head)
		}
		if got.conn.compress != seen.compress {
			t.Fatalf("compression in place %v, from Upgrade %v\nhead: %q", got.conn.compress, seen.compress, head)
		}
	})
}

// TestUpgradeRequestVerdicts pins the seed corpus's verdicts by name —
// the browsers' handshakes among those answered in place — and holds
// each in-place answer to the slow path's, with and without
// compression.
func TestUpgradeRequestVerdicts(t *testing.T) {
	for _, tc := range upgradeVerdicts {
		for _, compression := range []bool{false, true} {
			got := runInPlace([]byte(tc.head), false, &Upgrader{EnableCompression: compression})
			if inPlace := got.conn != nil; inPlace != tc.inPlace {
				t.Errorf("%s: answered in place = %v, want %v", tc.name, inPlace, tc.inPlace)
				continue
			}
			if !tc.inPlace {
				continue
			}
			head, _ := peekHeader(bufio.NewReaderSize(strings.NewReader(tc.head), maxHead))
			want, seen, reached := slowPathFor(compression).answer(head)
			if !reached || !seen.upgraded || string(got.answer) != string(want) {
				t.Errorf("%s (compression %v): in place %q, slow path %q (upgraded: %v)", tc.name, compression, got.answer, want, seen.upgraded)
			}
			if got.origin != seen.origin || got.conn.compress != seen.compress {
				t.Errorf("%s (compression %v): in place origin %q compress %v, slow path %q %v",
					tc.name, compression, got.origin, got.conn.compress, seen.origin, seen.compress)
			}
		}
	}
	// Both browsers offer permessage-deflate in a form we accept.
	for _, head := range []string{chromeHead, firefoxHead} {
		got := runInPlace([]byte(head), false, &Upgrader{EnableCompression: true})
		if got.conn == nil || !got.conn.compress || got.origin != "http://futbolhoy.es" {
			t.Errorf("browser handshake: conn %v, origin %q; want compression agreed in place", got.conn, got.origin)
		}
	}
}

func TestInPlaceHandshakeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins do not hold under -race")
	}
	head := []byte(goHead)
	if n := testing.AllocsPerRun(100, func() {
		if _, clean := parseUpgradeRequest(head); !clean {
			t.Fatal("not clean")
		}
	}); n != 0 {
		t.Errorf("parsing a handshake head allocates %.0f times, want 0", n)
	}
}

// frontServer is a Front on loopback with an http.Server behind it.
type frontServer struct {
	front   *Front
	addr    string
	served  chan error   // http.Server.Serve's result
	inPlace atomic.Int32 // sessions the Front's route served
	viaHTTP atomic.Int32 // requests the http handler saw
}

// echoSession answers every message with itself until the peer closes.
func echoSession(conn *Conn) {
	defer conn.Close(CloseNormal, "")
	for {
		op, msg, err := conn.ReadMessage()
		if err != nil {
			return
		}
		if err := conn.WriteMessage(op, msg); err != nil {
			return
		}
	}
}

// startFront serves /beacon in place (sessions echo) over ln, or a
// fresh loopback listener, with a slow path that upgrades and echoes
// too and answers 204 elsewhere.
func startFront(t *testing.T, ln net.Listener, tune func(*Front)) *frontServer {
	t.Helper()
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	s := &frontServer{addr: ln.Addr().String(), served: make(chan error, 1)}
	u := &Upgrader{EnableCompression: true}
	s.front = NewFront(ln, map[string]Route{"/beacon": {
		Upgrader: u,
		Serve:    func(conn *Conn, _ time.Duration) { s.inPlace.Add(1); echoSession(conn) },
	}})
	if tune != nil {
		tune(s.front)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/beacon", func(w http.ResponseWriter, r *http.Request) {
		s.viaHTTP.Add(1)
		if conn, err := u.Upgrade(w, r); err == nil {
			go echoSession(conn)
		}
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.viaHTTP.Add(1)
		w.WriteHeader(http.StatusNoContent)
	})
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: HeadTimeout}
	go func() { s.served <- srv.Serve(s.front) }()
	t.Cleanup(func() { srv.Close() })
	return s
}

// rawEcho sends request (a handshake head, perhaps with more behind it)
// followed by one masked text frame, and returns the 101 and the echo.
func rawEcho(t *testing.T, addr, request, text string) (answer, echo string) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	frame, err := AppendFrame(nil, Frame{Fin: true, Opcode: OpText, Masked: true, MaskKey: [4]byte{1, 2, 3, 4}, Payload: []byte(text)})
	if err != nil {
		t.Fatal(err)
	}
	// One write: the first frame rides in the handshake's segment.
	if _, err := nc.Write(append([]byte(request), frame...)); err != nil {
		t.Fatal(err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(nc)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading the answer: %v (so far %q)", err, answer)
		}
		answer += line
		if line == "\r\n" {
			break
		}
	}
	f, err := ReadFrame(br, 1<<16)
	if err != nil {
		t.Fatalf("reading the echo: %v", err)
	}
	return answer, string(f.Payload)
}

func TestFrontServesBothPaths(t *testing.T) {
	s := startFront(t, nil, nil)

	// The dialer's own handshake, a frame already behind it.
	conn, _, err := (&Dialer{EnableCompression: true}).Dial(context.Background(), "ws://"+s.addr+"/beacon")
	if err != nil {
		t.Fatal(err)
	}
	if !conn.compress {
		t.Error("compression not agreed in place")
	}
	long := strings.Repeat("exposure ", 64) // over the compression threshold
	if err := conn.WriteText(long); err != nil {
		t.Fatal(err)
	}
	if _, msg, err := conn.ReadMessage(); err != nil || string(msg) != long {
		t.Fatalf("echo = %q, %v", msg, err)
	}
	conn.Close(CloseNormal, "")
	if in, via := s.inPlace.Load(), s.viaHTTP.Load(); in != 1 || via != 0 {
		t.Fatalf("after a clean upgrade: %d in place, %d through net/http; want 1, 0", in, via)
	}
	answer, echo := rawEcho(t, s.addr, chromeHead, "first frame")
	if want := referenceUpgradeResponse(fuzzKey, offerExtension); answer != want || echo != "first frame" {
		t.Fatalf("in place: answer %q echo %q, want %q", answer, echo, want)
	}
	if in, via := s.inPlace.Load(), s.viaHTTP.Load(); in != 2 || via != 0 {
		t.Fatalf("after a browser's upgrade: %d in place, %d through net/http; want 2, 0", in, via)
	}

	// A valid upgrade too long for the pooled buffer is net/http's, and
	// works just the same, first frame included.
	big := strings.Replace(chromeHead, "\r\n\r\n", "\r\nCookie: "+strings.Repeat("c", 2*maxHead)+"\r\n\r\n", 1)
	answer, echo = rawEcho(t, s.addr, big, "after a long head")
	if want := referenceUpgradeResponse(fuzzKey, offerExtension); answer != want || echo != "after a long head" {
		t.Fatalf("through net/http: answer %q echo %q, want %q", answer, echo, want)
	}
	if in, via := s.inPlace.Load(), s.viaHTTP.Load(); in != 2 || via != 1 {
		t.Fatalf("after an overlong upgrade: %d in place, %d through net/http; want 2, 1", in, via)
	}

	// Plain HTTP, keep-alive included, never meets the in-place path.
	client := &http.Client{}
	for i := 0; i < 2; i++ {
		resp, err := client.Get("http://" + s.addr + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("GET /healthz: %d", resp.StatusCode)
		}
	}
	client.CloseIdleConnections()
	if in, via := s.inPlace.Load(), s.viaHTTP.Load(); in != 2 || via != 3 {
		t.Fatalf("after two plain requests: %d in place, %d through net/http; want 2, 3", in, via)
	}
}

// TestFrontRouteWithCheckOriginFallsBack: an Upgrader that wants the
// *http.Request gets one.
func TestFrontRouteWithCheckOriginFallsBack(t *testing.T) {
	got := runInPlace([]byte(goHead), false, &Upgrader{CheckOrigin: func(*http.Request) bool { return true }})
	if got.conn != nil || got.handed == nil {
		t.Fatalf("conn %v handed %v; want the connection handed to net/http", got.conn, got.handed)
	}
}

// TestFrontAdmissionRefusalFallsBack: a refusal is net/http's to write.
func TestFrontAdmissionRefusalFallsBack(t *testing.T) {
	f := NewFront(nil, map[string]Route{"/beacon": {Upgrader: &Upgrader{}, Admit: func(string) bool { return false }}})
	f.fallback = make(chan net.Conn, 1)
	nc := &memConn{in: strings.NewReader(goHead)}
	if conn, _, _ := f.handshake(nc, getHeadReader(nc)); conn != nil {
		t.Fatal("answered a request admission refused")
	}
	if nc.out.Len() != 0 || nc.closed {
		t.Fatalf("wrote %q, closed %v; want the connection untouched", nc.out.Bytes(), nc.closed)
	}
	if replay, _ := io.ReadAll(<-f.fallback); string(replay) != goHead {
		t.Fatalf("replayed %q", replay)
	}
}

// temporaryErr is what Accept returns when the process is out of file
// descriptors.
type temporaryErr struct{}

func (temporaryErr) Error() string   { return "accept: too many open files" }
func (temporaryErr) Timeout() bool   { return false }
func (temporaryErr) Temporary() bool { return true }

// flakyListener fails its first Accepts with a temporary error.
type flakyListener struct {
	net.Listener
	failures atomic.Int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.failures.Add(-1) >= 0 {
		return nil, temporaryErr{}
	}
	return l.Listener.Accept()
}

func TestFrontBacksOffOnTemporaryAcceptErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyListener{Listener: ln}
	flaky.failures.Store(4) // 5 + 10 + 20 + 40 ms of backoff
	start := time.Now()
	s := startFront(t, flaky, nil)
	if _, echo := rawEcho(t, s.addr, goHead, "still serving"); echo != "still serving" {
		t.Fatalf("echo = %q", echo)
	}
	if waited := time.Since(start); waited < 75*time.Millisecond {
		t.Errorf("served after %v; four temporary errors should have backed off 75 ms", waited)
	}
	select {
	case err := <-s.served:
		t.Fatalf("Serve ended on a temporary accept error: %v", err)
	default:
	}
}

func TestFrontEndsServeOnPermanentAcceptError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := startFront(t, ln, nil)
	if _, echo := rawEcho(t, s.addr, goHead, "up"); echo != "up" {
		t.Fatalf("echo = %q", echo)
	}
	ln.Close() // behind the Front's back: not a shutdown
	select {
	case err := <-s.served:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Serve returned %v, want the listener's error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve still running on a dead listener")
	}
}

// headCount reads how many connections are still in their head.
func (f *Front) headCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.heads)
}

func TestFrontClosesUnfinishedHeadAtDeadline(t *testing.T) {
	s := startFront(t, nil, func(f *Front) { f.headTimeout = 50 * time.Millisecond })
	nc, err := net.Dial("tcp", s.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := io.WriteString(nc, goHead[:40]); err != nil {
		t.Fatal(err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if n, err := nc.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read %d bytes, err %v; want the server to close without an answer", n, err)
	}
	if waited := time.Since(start); waited < 40*time.Millisecond {
		t.Errorf("closed after %v, before the deadline", waited)
	}
	// Nothing is left of it: Close, which waits for every connection in
	// its head, has nobody to wait for.
	deadline := time.Now().Add(2 * time.Second)
	for s.front.headCount() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := s.front.headCount(); n != 0 {
		t.Fatalf("%d connections still in their head", n)
	}
	if in, via := s.inPlace.Load(), s.viaHTTP.Load(); in != 0 || via != 0 {
		t.Fatalf("%d in place, %d through net/http; want neither", in, via)
	}
}

func TestFrontClearsHeadDeadlineBeforeSession(t *testing.T) {
	s := startFront(t, nil, func(f *Front) { f.headTimeout = 50 * time.Millisecond })
	conn, _, err := (&Dialer{}).Dial(context.Background(), "ws://"+s.addr+"/beacon")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close(CloseNormal, "")
	time.Sleep(150 * time.Millisecond) // well past the head deadline
	if err := conn.WriteText("late"); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, msg, err := conn.ReadMessage(); err != nil || string(msg) != "late" {
		t.Fatalf("echo = %q, %v; the head deadline outlived the head", msg, err)
	}
}

func TestFrontCloseClosesConnectionsInTheirHead(t *testing.T) {
	s := startFront(t, nil, nil) // the full 10 s head deadline
	nc, err := net.Dial("tcp", s.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := io.WriteString(nc, goHead[:40]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.front.headCount() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	if err := s.front.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("Close took %v with a connection parked in its head", took)
	}
	if n := s.front.headCount(); n != 0 {
		t.Fatalf("%d connections still in their head after Close", n)
	}
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Read(make([]byte, 1)); err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("read err %v; want the parked connection closed", err)
	}
	select {
	case err := <-s.served:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve still running after Close")
	}
	if _, err := net.DialTimeout("tcp", s.addr, time.Second); err == nil {
		t.Fatal("the real listener is still accepting")
	}
	if err := s.front.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestFrontCloseBeforeServe: a Front nobody served still closes its
// listener, and Accept then fails instead of starting the loop.
func TestFrontCloseBeforeServe(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := NewFront(ln, nil)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Accept after Close: %v", err)
	}
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Fatal("the listener is still accepting")
	}
}
