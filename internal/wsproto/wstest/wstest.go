// Package wstest holds what the tiers' tests share when they speak to
// a server over a raw socket: handshake heads written out byte by byte,
// exchanges whose answers are compared byte by byte, and a listener
// whose peers have no usable address.
package wstest

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"adaudit/internal/wsproto"
)

// Key is the Sec-WebSocket-Key of every head built here (RFC 6455's
// sample nonce).
const Key = "dGhlIHNhbXBsZSBub25jZQ=="

// UpgradeHead is a clean upgrade request for /beacon; extra is further
// field lines ("Name: value\r\n" each).
func UpgradeHead(extra string) string {
	return "GET /beacon HTTP/1.1\r\nHost: tier.test\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n" +
		"Sec-WebSocket-Key: " + Key + "\r\nSec-WebSocket-Version: 13\r\n" + extra + "\r\n"
}

// Closing makes the server hang up after answering head, so that
// Exchange sees the end of the answer.
func Closing(head string) string {
	return strings.Replace(head, "Connection: Upgrade", "Connection: Upgrade, close", 1)
}

// Session is head followed, in the same bytes, by text as one masked
// text frame and a normal close frame: a whole beacon session in one
// write.
func Session(t *testing.T, head, text string) []byte {
	t.Helper()
	wire := []byte(head)
	for _, f := range []wsproto.Frame{
		{Fin: true, Opcode: wsproto.OpText, Payload: []byte(text)},
		{Fin: true, Opcode: wsproto.OpClose, Payload: wsproto.EncodeClosePayload(wsproto.CloseNormal, "")},
	} {
		f.Masked, f.MaskKey = true, [4]byte{9, 8, 7, 6}
		var err error
		if wire, err = wsproto.AppendFrame(wire, f); err != nil {
			t.Fatal(err)
		}
	}
	return wire
}

var dateLine = regexp.MustCompile(`\r\nDate: [^\r]*`)

// Exchange writes raw to addr and returns everything the server sends
// before it closes the connection, the Date line blanked.
func Exchange(t *testing.T, addr, raw string) string {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := io.WriteString(nc, raw); err != nil {
		t.Fatal(err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(nc)
	if err != nil {
		t.Fatalf("reading the answer to %q: %v (so far %q)", raw, err, got)
	}
	return dateLine.ReplaceAllString(string(got), "\r\nDate: -")
}

// HandlerAlone serves beacon at /beacon on a ServeMux under httptest —
// net/http accepting for itself, no front — and returns its address.
func HandlerAlone(t *testing.T, beacon http.Handler) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("/beacon", beacon)
	ref := httptest.NewServer(mux)
	t.Cleanup(ref.Close)
	return ref.Listener.Addr().String()
}

// AddrlessListener hands out ln's connections with the RemoteAddr
// "pipe", which is not a host:port at all.
func AddrlessListener(ln net.Listener) net.Listener { return addrlessListener{ln} }

type addrlessListener struct{ net.Listener }

func (l addrlessListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return addrlessConn{c}, nil
}

type addrlessConn struct{ net.Conn }

func (addrlessConn) RemoteAddr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "tcp"} }
