package wsproto

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"
)

// WriteFragmented sends payload as a fragmented message with the given
// fragment size, exercising §5.4 on the wire. fragSize must be positive.
// Production senders use WriteMessage.
func (c *Conn) WriteFragmented(op Opcode, payload []byte, fragSize int) error {
	if !op.IsData() {
		return fmt.Errorf("wsproto: WriteFragmented with non-data opcode %v", op)
	}
	if fragSize <= 0 {
		return fmt.Errorf("wsproto: fragment size must be positive")
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.wroteClose {
		return ErrWriteAfterClose
	}
	first := true
	for {
		n := len(payload)
		if n > fragSize {
			n = fragSize
		}
		frag := payload[:n]
		payload = payload[n:]
		f := Frame{Fin: len(payload) == 0, Payload: frag}
		if first {
			f.Opcode = op
			first = false
		} else {
			f.Opcode = OpContinuation
		}
		if err := c.writeFrameLocked(f); err != nil {
			return err
		}
		if f.Fin {
			return nil
		}
	}
}

// pipePair returns a connected client/server Conn pair over an in-memory
// transport.
func pipePair(maxMessage int64) (client, server *Conn) {
	cNC, sNC := net.Pipe()
	return newConn(cNC, bufio.NewReader(cNC), RoleClient, maxMessage), newConn(sNC, bufio.NewReader(sNC), RoleServer, maxMessage)
}

// closeCodeFrom reads frames off nc, as a peer that keeps reading does,
// until the close frame the other end sends when it fails the
// connection, and delivers that frame's code (none if nc ends first).
// A peer that stopped reading would leave that end's Close to wait out
// closeWriteTimeout on the pipe.
func closeCodeFrom(nc net.Conn) <-chan CloseCode {
	codes := make(chan CloseCode, 1)
	go func() {
		defer close(codes)
		for {
			f, err := ReadFrame(nc, 0)
			if err != nil {
				return
			}
			if f.Opcode == OpClose {
				code, _, _ := DecodeClosePayload(f.Payload)
				codes <- code
				return
			}
		}
	}()
	return codes
}

// wantCloseCode fails t unless the peer received a close frame of code.
func wantCloseCode(t *testing.T, codes <-chan CloseCode, want CloseCode) {
	t.Helper()
	if got := <-codes; got != want {
		t.Errorf("peer received close code %d, want %d", got, want)
	}
}

func TestConnTextRoundTrip(t *testing.T) {
	client, server := pipePair(0)
	defer client.NetConn().Close()
	defer server.NetConn().Close()

	go func() {
		client.WriteText("impression data")
	}()
	op, msg, err := server.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if op != OpText || string(msg) != "impression data" {
		t.Fatalf("got (%v, %q)", op, msg)
	}
}

func TestConnServerToClient(t *testing.T) {
	client, server := pipePair(0)
	defer client.NetConn().Close()
	defer server.NetConn().Close()

	go func() {
		server.WriteMessage(OpBinary, []byte{1, 2, 3})
	}()
	op, msg, err := client.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if op != OpBinary || !bytes.Equal(msg, []byte{1, 2, 3}) {
		t.Fatalf("got (%v, %v)", op, msg)
	}
}

func TestConnRejectsUnmaskedClientFrame(t *testing.T) {
	cNC, sNC := net.Pipe()
	server := newConn(sNC, bufio.NewReader(sNC), RoleServer, 0)
	defer sNC.Close()
	defer cNC.Close()

	peer := closeCodeFrom(cNC)
	go func() {
		// Write a raw unmasked frame from the client side.
		WriteFrame(cNC, Frame{Fin: true, Opcode: OpText, Payload: []byte("x")})
	}()
	if _, _, err := server.ReadMessage(); err == nil || !strings.Contains(err.Error(), "unmasked") {
		t.Fatalf("err = %v, want unmasked-frame violation", err)
	}
	wantCloseCode(t, peer, CloseProtocolError)
}

func TestConnRejectsMaskedServerFrame(t *testing.T) {
	cNC, sNC := net.Pipe()
	client := newConn(cNC, bufio.NewReader(cNC), RoleClient, 0)
	defer sNC.Close()
	defer cNC.Close()

	peer := closeCodeFrom(sNC)
	go func() {
		WriteFrame(sNC, Frame{Fin: true, Opcode: OpText, Masked: true, MaskKey: [4]byte{1, 2, 3, 4}, Payload: []byte("x")})
	}()
	if _, _, err := client.ReadMessage(); err == nil || !strings.Contains(err.Error(), "masked") {
		t.Fatalf("err = %v, want masked-frame violation", err)
	}
	wantCloseCode(t, peer, CloseProtocolError)
}

func TestConnPingAutoPong(t *testing.T) {
	client, server := pipePair(0)
	defer client.NetConn().Close()
	defer server.NetConn().Close()

	var wg sync.WaitGroup
	wg.Add(1)
	var pongPayload []byte
	client.SetPongHandler(func(p []byte) {
		pongPayload = append([]byte(nil), p...)
		wg.Done()
	})

	// Server reads in background (it must see the ping and auto-reply).
	go server.ReadMessage()
	// Client sends ping then reads until pong arrives.
	go client.Ping([]byte("hb-1"))

	done := make(chan struct{})
	go func() {
		// The pong is a control frame; ReadMessage processes it and
		// keeps waiting for data, so run it in the background and rely
		// on the handler.
		client.ReadMessage()
	}()
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("pong not received")
	}
	if string(pongPayload) != "hb-1" {
		t.Fatalf("pong payload = %q", pongPayload)
	}
}

func TestConnPingHandlerObserves(t *testing.T) {
	client, server := pipePair(0)
	defer client.NetConn().Close()
	defer server.NetConn().Close()

	seen := make(chan []byte, 1)
	server.SetPingHandler(func(p []byte) { seen <- append([]byte(nil), p...) })
	go server.ReadMessage()
	go client.ReadMessage() // consume the auto-pong
	if err := client.Ping([]byte("probe")); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-seen:
		if string(p) != "probe" {
			t.Fatalf("ping payload = %q", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ping handler not invoked")
	}
}

func TestConnCloseHandshake(t *testing.T) {
	client, server := pipePair(0)

	go func() {
		server.ReadMessage() // will see close, echo it, and surface CloseError
	}()
	if err := client.Close(CloseGoingAway, "done"); err != nil {
		t.Fatal(err)
	}
	// Client should observe... the transport is torn down by Close;
	// instead verify the server side got the code.
	client.NetConn().Close()
	server.NetConn().Close()
}

func TestConnCloseErrorSurfaced(t *testing.T) {
	client, server := pipePair(0)
	defer client.NetConn().Close()
	defer server.NetConn().Close()

	errCh := make(chan error, 1)
	go func() {
		_, _, err := server.ReadMessage()
		errCh <- err
	}()
	// Send close from client without closing TCP first so the server
	// can read it.
	if err := client.writeFrame(Frame{Fin: true, Opcode: OpClose, Payload: EncodeClosePayload(CloseGoingAway, "bye")}); err != nil {
		t.Fatal(err)
	}
	// The server replies with a close echo; consume it.
	go ReadFrame(client.br, 0)

	select {
	case err := <-errCh:
		var ce *CloseError
		if !errors.As(err, &ce) {
			t.Fatalf("err = %v, want *CloseError", err)
		}
		if ce.Code != CloseGoingAway || ce.Reason != "bye" {
			t.Fatalf("close = %+v", ce)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("close not surfaced")
	}
}

// ReadMessage completes the closing handshake itself — it echoes the
// peer's close frame and closes the socket — so the caller's own Close
// afterwards finds the transport closed. That is a clean shutdown, not
// "use of closed network connection". Over real TCP: net.Pipe's Close
// never reports a double close.
func TestConnCloseAfterPeerCloseEcho(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := (&Upgrader{}).Upgrade(w, r)
		if err != nil {
			return
		}
		conn.Close(CloseGoingAway, "bye") // server-initiated close
	}))
	defer srv.Close()

	conn, _, err := (&Dialer{}).Dial(context.Background(), "ws"+strings.TrimPrefix(srv.URL, "http"))
	if err != nil {
		t.Fatal(err)
	}
	var ce *CloseError
	if _, _, err := conn.ReadMessage(); !errors.As(err, &ce) || ce.Code != CloseGoingAway {
		t.Fatalf("ReadMessage err = %v, want the peer's close", err)
	}
	for i := 0; i < 2; i++ {
		if err := conn.Close(CloseNormal, ""); err != nil {
			t.Fatalf("Close #%d after the close echo = %v, want nil", i+1, err)
		}
	}
}

func TestConnWriteAfterClose(t *testing.T) {
	client, server := pipePair(0)
	defer server.NetConn().Close()
	go func() { server.ReadMessage() }()
	client.Close(CloseNormal, "")
	if err := client.WriteText("late"); !errors.Is(err, ErrWriteAfterClose) {
		t.Fatalf("err = %v, want ErrWriteAfterClose", err)
	}
}

func TestConnFragmentedMessageReassembly(t *testing.T) {
	client, server := pipePair(0)
	defer client.NetConn().Close()
	defer server.NetConn().Close()

	payload := bytes.Repeat([]byte("abcdefgh"), 100)
	go func() {
		client.WriteFragmented(OpBinary, payload, 17)
	}()
	op, msg, err := server.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if op != OpBinary || !bytes.Equal(msg, payload) {
		t.Fatalf("reassembly mismatch: %d bytes, op %v", len(msg), op)
	}
}

func TestConnFragmentsInterleavedWithPing(t *testing.T) {
	client, server := pipePair(0)
	defer client.NetConn().Close()
	defer server.NetConn().Close()

	go client.ReadMessage() // consume auto-pong
	go func() {
		// Fragment, ping, continuation: §5.5 requires control frames to
		// be processable mid-message.
		client.writeFrame(Frame{Fin: false, Opcode: OpText, Payload: []byte("hel")})
		client.Ping([]byte("mid"))
		client.writeFrame(Frame{Fin: true, Opcode: OpContinuation, Payload: []byte("lo")})
	}()
	op, msg, err := server.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if op != OpText || string(msg) != "hello" {
		t.Fatalf("got (%v, %q)", op, msg)
	}
}

func TestConnRejectsStrayContinuation(t *testing.T) {
	client, server := pipePair(0)
	defer client.NetConn().Close()
	defer server.NetConn().Close()
	peer := closeCodeFrom(client.NetConn())
	go func() {
		client.writeFrame(Frame{Fin: true, Opcode: OpContinuation, Payload: []byte("x")})
	}()
	if _, _, err := server.ReadMessage(); err == nil || !strings.Contains(err.Error(), "continuation") {
		t.Fatalf("err = %v, want stray-continuation violation", err)
	}
	wantCloseCode(t, peer, CloseProtocolError)
}

func TestConnRejectsInterleavedDataFrames(t *testing.T) {
	client, server := pipePair(0)
	defer client.NetConn().Close()
	defer server.NetConn().Close()
	peer := closeCodeFrom(client.NetConn())
	go func() {
		client.writeFrame(Frame{Fin: false, Opcode: OpText, Payload: []byte("a")})
		client.writeFrame(Frame{Fin: true, Opcode: OpText, Payload: []byte("b")})
	}()
	if _, _, err := server.ReadMessage(); err == nil || !strings.Contains(err.Error(), "fragmented") {
		t.Fatalf("err = %v, want interleaving violation", err)
	}
	wantCloseCode(t, peer, CloseProtocolError)
}

func TestConnMessageSizeLimit(t *testing.T) {
	client, server := pipePair(64)
	defer client.NetConn().Close()
	defer server.NetConn().Close()
	peer := closeCodeFrom(client.NetConn())
	go func() {
		client.WriteFragmented(OpBinary, make([]byte, 200), 32)
	}()
	if _, _, err := server.ReadMessage(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	wantCloseCode(t, peer, CloseMessageTooBig)
}

func TestConnRejectsInvalidUTF8Text(t *testing.T) {
	client, server := pipePair(0)
	defer client.NetConn().Close()
	defer server.NetConn().Close()
	if err := client.WriteMessage(OpText, []byte{0xFF, 0xFE}); err == nil {
		t.Fatal("WriteMessage accepted invalid UTF-8 text")
	}
	// Bypass the write-side check to verify the read side too.
	go func() {
		client.writeFrame(Frame{Fin: true, Opcode: OpText, Payload: []byte{0xFF, 0xFE}})
	}()
	_, _, err := server.ReadMessage()
	var ce *CloseError
	if !errors.As(err, &ce) || ce.Code != CloseInvalidPayload {
		t.Fatalf("err = %v, want CloseInvalidPayload", err)
	}
}

func TestConnWriteMessageRejectsControlOpcode(t *testing.T) {
	client, _ := pipePair(0)
	defer client.NetConn().Close()
	if err := client.WriteMessage(OpPing, nil); err == nil {
		t.Fatal("WriteMessage accepted control opcode")
	}
}

func TestEndToEndOverHTTPServer(t *testing.T) {
	upgrader := &Upgrader{MaxMessageSize: 1 << 20}
	received := make(chan string, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := upgrader.Upgrade(w, r)
		if err != nil {
			return
		}
		defer conn.Close(CloseNormal, "")
		_, msg, err := conn.ReadMessage()
		if err != nil {
			return
		}
		received <- string(msg)
		conn.WriteText("ack:" + string(msg))
	}))
	defer srv.Close()

	d := &Dialer{MaxMessageSize: 1 << 20, Header: http.Header{"Origin": {"http://publisher.example"}}}
	url := "ws" + strings.TrimPrefix(srv.URL, "http")
	conn, resp, err := d.Dial(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close(CloseNormal, "")
	if resp != nil {
		t.Fatalf("successful dial returned a response (status %d); only a non-101 answer does", resp.StatusCode)
	}
	if err := conn.WriteText("payload-1"); err != nil {
		t.Fatal(err)
	}
	op, msg, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if op != OpText || string(msg) != "ack:payload-1" {
		t.Fatalf("got (%v, %q)", op, msg)
	}
	select {
	case got := <-received:
		if got != "payload-1" {
			t.Fatalf("server received %q", got)
		}
	case <-time.After(time.Second):
		t.Fatal("server never received message")
	}
}

func TestDialRejectsBadScheme(t *testing.T) {
	d := &Dialer{}
	if _, _, err := d.Dial(context.Background(), "http://x"); err == nil {
		t.Fatal("http scheme accepted")
	}
	if _, _, err := d.Dial(context.Background(), "wss://x"); err == nil {
		t.Fatal("wss scheme accepted (unsupported by design)")
	}
}

func TestDialContextCancellation(t *testing.T) {
	// A listener that accepts but never responds.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	d := &Dialer{}
	start := time.Now()
	_, _, err = d.Dial(ctx, "ws://"+ln.Addr().String())
	if err == nil {
		t.Fatal("dial to mute server succeeded")
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("context cancellation not honoured")
	}
}

func TestUpgradeRejections(t *testing.T) {
	upgrader := &Upgrader{}
	h := func(w http.ResponseWriter, r *http.Request) {
		upgrader.Upgrade(w, r)
	}
	srv := httptest.NewServer(http.HandlerFunc(h))
	defer srv.Close()

	// Plain GET without upgrade headers.
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("plain GET status = %d", resp.StatusCode)
	}

	// POST.
	resp, err = http.Post(srv.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d", resp.StatusCode)
	}

	// Wrong version.
	req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", "websocket")
	req.Header.Set("Sec-WebSocket-Version", "8")
	req.Header.Set("Sec-WebSocket-Key", "AAAAAAAAAAAAAAAAAAAAAA==")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired {
		t.Fatalf("bad version status = %d", resp.StatusCode)
	}
}

func TestUpgradeOriginCheck(t *testing.T) {
	upgrader := &Upgrader{CheckOrigin: func(r *http.Request) bool {
		return r.Header.Get("Origin") == "http://trusted.example"
	}}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		upgrader.Upgrade(w, r)
	}))
	defer srv.Close()
	url := "ws" + strings.TrimPrefix(srv.URL, "http")

	d := &Dialer{Header: http.Header{"Origin": {"http://evil.example"}}}
	if _, resp, err := d.Dial(context.Background(), url); err == nil {
		t.Fatal("rejected origin dialed successfully")
	} else if resp == nil || resp.StatusCode != http.StatusForbidden {
		t.Fatalf("origin rejection response = %+v", resp)
	}

	d = &Dialer{Header: http.Header{"Origin": {"http://trusted.example"}}}
	conn, _, err := d.Dial(context.Background(), url)
	if err != nil {
		t.Fatalf("trusted origin rejected: %v", err)
	}
	conn.Close(CloseNormal, "")
}

func TestAcceptKeyRFCVector(t *testing.T) {
	// The worked example from RFC 6455 §1.3.
	got := AcceptKey("dGhlIHNhbXBsZSBub25jZQ==")
	want := "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
	if got != want {
		t.Fatalf("AcceptKey = %q, want %q", got, want)
	}
}

func TestLargeMessageOverTCP(t *testing.T) {
	upgrader := &Upgrader{MaxMessageSize: 4 << 20}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := upgrader.Upgrade(w, r)
		if err != nil {
			return
		}
		defer conn.Close(CloseNormal, "")
		op, msg, err := conn.ReadMessage()
		if err != nil {
			return
		}
		conn.WriteMessage(op, msg) // echo
	}))
	defer srv.Close()

	d := &Dialer{MaxMessageSize: 4 << 20}
	conn, _, err := d.Dial(context.Background(), "ws"+strings.TrimPrefix(srv.URL, "http"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close(CloseNormal, "")

	big := bytes.Repeat([]byte{0x5A}, 1<<20)
	if err := conn.WriteMessage(OpBinary, big); err != nil {
		t.Fatal(err)
	}
	op, msg, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if op != OpBinary || !bytes.Equal(msg, big) {
		t.Fatalf("echo mismatch: %d bytes", len(msg))
	}
}

func TestConcurrentWritersSerialized(t *testing.T) {
	// Writes are documented as safe from multiple goroutines; hammer a
	// live connection from 8 writers and verify every message arrives
	// intact (no interleaved frames).
	upgrader := &Upgrader{MaxMessageSize: 1 << 16}
	received := make(chan string, 1024)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := upgrader.Upgrade(w, r)
		if err != nil {
			return
		}
		defer conn.Close(CloseNormal, "")
		for {
			_, msg, err := conn.ReadMessage()
			if err != nil {
				return
			}
			received <- string(msg)
		}
	}))
	defer srv.Close()

	d := &Dialer{MaxMessageSize: 1 << 16}
	conn, _, err := d.Dial(context.Background(), "ws"+strings.TrimPrefix(srv.URL, "http"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close(CloseNormal, "")

	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				msg := strings.Repeat(string(rune('a'+w)), 64)
				if err := conn.WriteText(msg); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	seen := map[byte]int{}
	for i := 0; i < writers*perWriter; i++ {
		select {
		case msg := <-received:
			if len(msg) != 64 {
				t.Fatalf("corrupted message length %d", len(msg))
			}
			for j := 1; j < len(msg); j++ {
				if msg[j] != msg[0] {
					t.Fatalf("interleaved frame content: %q", msg)
				}
			}
			seen[msg[0]]++
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d messages arrived", i)
		}
	}
	for w := 0; w < writers; w++ {
		if seen[byte('a'+w)] != perWriter {
			t.Fatalf("writer %d: %d messages arrived", w, seen[byte('a'+w)])
		}
	}
}

func TestConnReuseReadBuffer(t *testing.T) {
	client, server := pipePair(0)
	defer client.NetConn().Close()
	defer server.NetConn().Close()
	server.ReuseReadBuffer()

	go func() {
		client.WriteText("first message payload")
		client.WriteText("second!")
	}()
	_, first, err := server.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != "first message payload" {
		t.Fatalf("first = %q", first)
	}
	_, second, err := server.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if string(second) != "second!" {
		t.Fatalf("second = %q", second)
	}
	// The contract: the second read may recycle the first payload's
	// backing array. Pin the aliasing so a regression that silently
	// re-copies (losing the alloc win) is caught.
	if &first[0] != &second[0] {
		t.Fatal("expected second read to reuse the first payload's buffer")
	}
	if string(first[:len(second)]) != "second!" {
		t.Fatalf("first payload no longer aliases buffer: %q", first[:len(second)])
	}
}

func TestConnReuseReadBufferFragmented(t *testing.T) {
	client, server := pipePair(0)
	defer client.NetConn().Close()
	defer server.NetConn().Close()
	server.ReuseReadBuffer()

	go func() {
		// Fragmented message: reassembly must copy into its own
		// accumulator, not hand back the recycled frame buffer.
		WriteFrame(client.NetConn(), Frame{Opcode: OpText, Payload: []byte("frag-one "), Masked: true})
		WriteFrame(client.NetConn(), Frame{Opcode: OpContinuation, Fin: true, Payload: []byte("frag-two"), Masked: true})
		client.WriteText("next")
	}()
	_, msg, err := server.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if string(msg) != "frag-one frag-two" {
		t.Fatalf("reassembled = %q", msg)
	}
	keep := string(msg)
	_, next, err := server.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if string(next) != "next" {
		t.Fatalf("next = %q", next)
	}
	if string(msg) != keep {
		t.Fatal("fragmented payload corrupted by subsequent read")
	}
}

// stringAddr is a net.Addr that is only its string, as a wrapped
// transport might report.
type stringAddr string

func (a stringAddr) Network() string { return "tcp" }
func (a stringAddr) String() string  { return string(a) }

// TestPeerAddr: the address an edge sends to the collector must be one
// its netip.ParseAddr accepts, for every shape of peer. Cutting the
// host:port string at the first colon, as both tiers used to, turned
// "[2001:db8::7]:443" into "2001" and "[::1]:54321" into "".
func TestPeerAddr(t *testing.T) {
	for _, tc := range []struct {
		remote string
		want   string // "" = must fail
	}{
		{"10.0.0.1:80", "10.0.0.1"},
		{"[::1]:54321", "::1"},
		{"[2001:db8::7]:443", "2001:db8::7"},
		{"[::ffff:10.0.0.1]:80", "10.0.0.1"},
		{"[fe80::1%eth0]:80", "fe80::1%eth0"},
		{"garbage", ""},
		{"", ""},
		{"pipe", ""},
	} {
		for _, a := range []net.Addr{stringAddr(tc.remote), tcpAddr(tc.remote)} {
			if a == nil {
				continue
			}
			got, err := PeerAddr(a)
			if tc.want == "" {
				if err == nil {
					t.Errorf("PeerAddr(%q) = %v, want an error", tc.remote, got)
				}
				continue
			}
			if err != nil || got.String() != tc.want {
				t.Errorf("PeerAddr(%T %q) = %v, %v; want %s", a, tc.remote, got, err, tc.want)
				continue
			}
			if _, err := netip.ParseAddr(got.String()); err != nil {
				t.Errorf("PeerAddr(%q) = %q, which the collector cannot parse: %v", tc.remote, got, err)
			}
		}
	}
}

// tcpAddr is the *net.TCPAddr form of a host:port, or nil when it is
// not one.
func tcpAddr(s string) net.Addr {
	ap, err := netip.ParseAddrPort(s)
	if err != nil {
		return nil
	}
	return net.TCPAddrFromAddrPort(ap)
}
