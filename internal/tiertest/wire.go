package tiertest

import (
	"net"
	"strings"

	"adaudit/internal/wsproto"
)

// What the rows write over a raw connection: handshake heads byte by
// byte, a whole session in one write, and a listener whose peers have
// no usable address.

// key is the Sec-WebSocket-Key of every head built here (RFC 6455's
// sample nonce).
const key = "dGhlIHNhbXBsZSBub25jZQ=="

// upgradeHead is a clean upgrade request for /beacon; extra is further
// field lines ("Name: value\r\n" each).
func upgradeHead(extra string) string {
	return "GET /beacon HTTP/1.1\r\nHost: tier.test\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n" +
		"Sec-WebSocket-Key: " + key + "\r\nSec-WebSocket-Version: 13\r\n" + extra + "\r\n"
}

// closing makes the server hang up after answering head, so that an
// exchange sees the end of the answer.
func closing(head string) string {
	return strings.Replace(head, "Connection: Upgrade", "Connection: Upgrade, close", 1)
}

// session is head followed, in the same bytes, by text as one masked
// text frame and a normal close frame.
func session(head, text string) ([]byte, error) {
	wire := []byte(head)
	for _, f := range []wsproto.Frame{
		{Fin: true, Opcode: wsproto.OpText, Payload: []byte(text)},
		{Fin: true, Opcode: wsproto.OpClose, Payload: wsproto.EncodeClosePayload(wsproto.CloseNormal, "")},
	} {
		f.Masked, f.MaskKey = true, [4]byte{9, 8, 7, 6}
		var err error
		if wire, err = wsproto.AppendFrame(wire, f); err != nil {
			return nil, err
		}
	}
	return wire, nil
}

// addrless hands out ln's connections with the RemoteAddr "pipe",
// which is not a host:port at all.
type addrless struct{ net.Listener }

func (l addrless) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return addrlessConn{c}, nil
}

type addrlessConn struct{ net.Conn }

func (addrlessConn) RemoteAddr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "tcp"} }
