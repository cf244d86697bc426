package wsproto

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/quick"
)

func TestDeflateInflateRoundTrip(t *testing.T) {
	msg := bytes.Repeat([]byte("impression payload "), 100)
	compressed, err := deflateMessage(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(compressed) >= len(msg) {
		t.Fatalf("compression did not shrink repetitive payload: %d >= %d",
			len(compressed), len(msg))
	}
	got, err := inflateMessage(compressed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("round trip corrupted payload")
	}
}

func TestDeflateInflateProperty(t *testing.T) {
	err := quick.Check(func(msg []byte) bool {
		compressed, err := deflateMessage(msg)
		if err != nil {
			return false
		}
		got, err := inflateMessage(compressed, 0)
		return err == nil && bytes.Equal(got, msg)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInflateEnforcesSizeLimit(t *testing.T) {
	// A highly compressible 1 MiB message against a 64 KiB limit: the
	// zip-bomb guard must fire.
	big := make([]byte, 1<<20)
	compressed, err := deflateMessage(big)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inflateMessage(compressed, 64<<10); err == nil {
		t.Fatal("inflated past the message size limit")
	}
}

func TestAcceptExtension(t *testing.T) {
	cases := []struct {
		offers []string
		ok     bool
	}{
		{[]string{"permessage-deflate"}, true},
		{[]string{"permessage-deflate; client_no_context_takeover"}, true},
		{[]string{"permessage-deflate; client_max_window_bits"}, true},
		{[]string{"permessage-deflate; server_max_window_bits=10"}, false},
		{[]string{"x-webkit-deflate-frame"}, false},
		{[]string{"x-unknown, permessage-deflate"}, true},
		{nil, false},
	}
	for _, c := range cases {
		resp, ok := acceptExtension(c.offers)
		if ok != c.ok {
			t.Errorf("acceptExtension(%v) ok = %v, want %v", c.offers, ok, c.ok)
		}
		if ok && !strings.HasPrefix(resp, extensionName) {
			t.Errorf("response %q malformed", resp)
		}
	}
}

func TestExtensionAgreed(t *testing.T) {
	if ok, err := extensionAgreed(""); ok || err != nil {
		t.Fatalf("empty = (%v, %v)", ok, err)
	}
	if ok, err := extensionAgreed(offerExtension); !ok || err != nil {
		t.Fatalf("standard response = (%v, %v)", ok, err)
	}
	if _, err := extensionAgreed("x-mystery"); err == nil {
		t.Fatal("unknown extension accepted")
	}
	if _, err := extensionAgreed("permessage-deflate; server_max_window_bits=9"); err == nil {
		t.Fatal("unsupported parameter accepted")
	}
}

// compressedPair dials a compression-enabled client against a server
// echo handler with compression enabled.
func compressedPair(t *testing.T, serverCompress, clientCompress bool) (*Conn, func()) {
	t.Helper()
	upgrader := &Upgrader{MaxMessageSize: 1 << 20, EnableCompression: serverCompress}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := upgrader.Upgrade(w, r)
		if err != nil {
			return
		}
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
	}))
	d := &Dialer{MaxMessageSize: 1 << 20, EnableCompression: clientCompress}
	conn, _, err := d.Dial(context.Background(), "ws"+strings.TrimPrefix(srv.URL, "http"))
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	return conn, func() {
		conn.Close(CloseNormal, "")
		srv.Close()
	}
}

func TestCompressionNegotiationMatrix(t *testing.T) {
	cases := []struct {
		server, client, want bool
	}{
		{true, true, true},
		{true, false, false},
		{false, true, false},
		{false, false, false},
	}
	for _, c := range cases {
		conn, done := compressedPair(t, c.server, c.client)
		if conn.compress != c.want {
			t.Errorf("server=%v client=%v: negotiated %v, want %v",
				c.server, c.client, conn.compress, c.want)
		}
		done()
	}
}

func TestCompressedEchoOverTCP(t *testing.T) {
	conn, done := compressedPair(t, true, true)
	defer done()
	if !conn.compress {
		t.Fatal("compression not negotiated")
	}
	// Large, repetitive text: compressed on the wire, identical after
	// the round trip.
	msg := strings.Repeat("v=1&cid=Research-010&url=http%3A%2F%2Fciencia.es%2F&", 50)
	if err := conn.WriteText(msg); err != nil {
		t.Fatal(err)
	}
	op, got, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if op != OpText || string(got) != msg {
		t.Fatalf("echo mismatch: %d bytes", len(got))
	}
	// Small messages skip compression but still round trip.
	if err := conn.WriteText("tiny"); err != nil {
		t.Fatal(err)
	}
	_, got, err = conn.ReadMessage()
	if err != nil || string(got) != "tiny" {
		t.Fatalf("tiny echo = (%q, %v)", got, err)
	}
}

func TestRSV1RejectedWithoutNegotiation(t *testing.T) {
	client, server := pipePair(0)
	defer client.NetConn().Close()
	defer server.NetConn().Close()
	peer := closeCodeFrom(client.NetConn())
	go func() {
		client.writeFrame(Frame{Fin: true, Rsv1: true, Opcode: OpText, Payload: []byte("x")})
	}()
	if _, _, err := server.ReadMessage(); err == nil || !strings.Contains(err.Error(), "RSV1") {
		t.Fatalf("err = %v, want RSV1 violation", err)
	}
	wantCloseCode(t, peer, CloseProtocolError)
}

func TestCompressedFragmentedMessage(t *testing.T) {
	// Compression happens at message level; fragments of a compressed
	// message carry RSV1 only on the first frame. Exercise the read
	// path with a hand-rolled fragmented compressed message.
	client, server := pipePair(1 << 20)
	client.compress = true
	server.compress = true
	defer client.NetConn().Close()
	defer server.NetConn().Close()

	msg := bytes.Repeat([]byte("fragmented and deflated "), 200)
	compressed, err := deflateMessage(msg)
	if err != nil {
		t.Fatal(err)
	}
	half := len(compressed) / 2
	go func() {
		client.writeFrame(Frame{Fin: false, Rsv1: true, Opcode: OpBinary, Payload: compressed[:half]})
		client.writeFrame(Frame{Fin: true, Opcode: OpContinuation, Payload: compressed[half:]})
	}()
	op, got, err := server.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if op != OpBinary || !bytes.Equal(got, msg) {
		t.Fatalf("fragmented compressed message corrupted: %d bytes", len(got))
	}
}

func TestServerAcceptingUnofferedExtensionRejected(t *testing.T) {
	// A raw HTTP server that unconditionally claims permessage-deflate
	// even though the client never offered it: the dial must fail.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hj := w.(http.Hijacker)
		nc, _, err := hj.Hijack()
		if err != nil {
			return
		}
		defer nc.Close()
		key := r.Header.Get("Sec-Websocket-Key")
		nc.Write([]byte("HTTP/1.1 101 Switching Protocols\r\n" +
			"Upgrade: websocket\r\nConnection: Upgrade\r\n" +
			"Sec-WebSocket-Extensions: permessage-deflate\r\n" +
			"Sec-WebSocket-Accept: " + AcceptKey(key) + "\r\n\r\n"))
	}))
	defer srv.Close()
	d := &Dialer{} // no compression offered
	if _, _, err := d.Dial(context.Background(), "ws"+strings.TrimPrefix(srv.URL, "http")); err == nil {
		t.Fatal("unoffered extension accepted")
	}
}
