package wsproto

import (
	"bufio"
	"bytes"
	"context"
	"crypto/rand"
	"crypto/sha1"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// websocketGUID is the fixed GUID of RFC 6455 §1.3 used to derive
// Sec-WebSocket-Accept from Sec-WebSocket-Key.
const websocketGUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// appendAcceptKey appends the Sec-WebSocket-Accept value for a client
// key to dst. For a
// well-formed 24-character key everything stays on the stack.
func appendAcceptKey(dst []byte, clientKey string) []byte {
	var buf [64]byte
	in := append(append(buf[:0], clientKey...), websocketGUID...)
	sum := sha1.Sum(in)
	return base64.StdEncoding.AppendEncode(dst, sum[:])
}

// Upgrader upgrades HTTP requests to WebSocket connections on the server
// side.
type Upgrader struct {
	// MaxMessageSize bounds reassembled message sizes on the resulting
	// connection; 0 means unlimited.
	MaxMessageSize int64
	// EnableCompression accepts permessage-deflate offers (RFC 7692,
	// no-context-takeover profile).
	EnableCompression bool
	// CheckOrigin, if set, validates the Origin header. When nil all
	// origins are accepted — appropriate for an ad beacon collector,
	// which by design receives cross-origin traffic from arbitrary
	// publisher pages.
	CheckOrigin func(r *http.Request) bool
}

// Upgrade performs the server side of the opening handshake. On failure
// it writes an HTTP error response and returns the reason.
func (u *Upgrader) Upgrade(w http.ResponseWriter, r *http.Request) (*Conn, error) {
	if r.Method != http.MethodGet {
		http.Error(w, "websocket: method not GET", http.StatusMethodNotAllowed)
		return nil, fmt.Errorf("wsproto: handshake method %s", r.Method)
	}
	if !headerContainsToken(r.Header, "Connection", "upgrade") {
		http.Error(w, "websocket: missing Connection: Upgrade", http.StatusBadRequest)
		return nil, errors.New("wsproto: missing Connection upgrade token")
	}
	if !headerContainsToken(r.Header, "Upgrade", "websocket") {
		http.Error(w, "websocket: missing Upgrade: websocket", http.StatusBadRequest)
		return nil, errors.New("wsproto: missing Upgrade websocket token")
	}
	if v := r.Header.Get("Sec-Websocket-Version"); v != "13" {
		w.Header().Set("Sec-Websocket-Version", "13")
		http.Error(w, "websocket: unsupported version", http.StatusUpgradeRequired)
		return nil, fmt.Errorf("wsproto: unsupported version %q", v)
	}
	key := r.Header.Get("Sec-Websocket-Key")
	if key == "" {
		http.Error(w, "websocket: missing Sec-WebSocket-Key", http.StatusBadRequest)
		return nil, errors.New("wsproto: missing Sec-WebSocket-Key")
	}
	if !validClientKey(key) {
		http.Error(w, "websocket: bad Sec-WebSocket-Key", http.StatusBadRequest)
		return nil, errors.New("wsproto: malformed Sec-WebSocket-Key")
	}
	if u.CheckOrigin != nil && !u.CheckOrigin(r) {
		http.Error(w, "websocket: origin not allowed", http.StatusForbidden)
		return nil, errors.New("wsproto: origin rejected")
	}

	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "websocket: response does not support hijacking", http.StatusInternalServerError)
		return nil, errors.New("wsproto: ResponseWriter is not a Hijacker")
	}
	nc, brw, err := hj.Hijack()
	if err != nil {
		return nil, fmt.Errorf("wsproto: hijacking connection: %w", err)
	}
	extension, compress := "", false
	if u.EnableCompression {
		extension, compress = acceptExtension(r.Header.Values("Sec-Websocket-Extensions"))
	}

	s := getScratch()
	s.buf = appendUpgradeResponse(s.buf[:0], key, extension)
	_, err = nc.Write(s.buf)
	s.release()
	if err != nil {
		nc.Close()
		return nil, &transportError{op: "writing handshake response", err: err}
	}
	// Any buffered bytes the server read beyond the request belong to
	// the WebSocket stream.
	conn := newConn(nc, brw.Reader, RoleServer, u.MaxMessageSize)
	conn.compress = compress
	return conn, nil
}

// appendUpgradeResponse appends the 101 answer to a handshake that sent
// key; extension, when not empty, is the agreed Sec-WebSocket-Extensions
// value.
func appendUpgradeResponse(dst []byte, key, extension string) []byte {
	dst = append(dst, "HTTP/1.1 101 Switching Protocols\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n"...)
	if extension != "" {
		dst = append(dst, "Sec-WebSocket-Extensions: "...)
		dst = append(dst, extension...)
		dst = append(dst, "\r\n"...)
	}
	dst = append(dst, "Sec-WebSocket-Accept: "...)
	dst = appendAcceptKey(dst, key)
	return append(dst, "\r\n\r\n"...)
}

// validClientKey reports whether key is the base64 encoding of exactly
// 16 bytes (§4.1), which is always 24 characters.
func validClientKey(key string) bool {
	if len(key) != 24 {
		return false
	}
	var enc [24]byte
	var raw [18]byte
	copy(enc[:], key)
	n, err := base64.StdEncoding.Decode(raw[:], enc[:])
	return err == nil && n == 16
}

// headerContainsToken reports whether any comma-separated value of the
// named header equals token case-insensitively.
func headerContainsToken(h http.Header, name, token string) bool {
	for _, v := range h.Values(name) {
		if valueContainsToken(v, token) {
			return true
		}
	}
	return false
}

// valueContainsToken reports whether one element of the comma-separated
// list v equals token case-insensitively.
func valueContainsToken(v, token string) bool {
	for more := true; more; {
		var part string
		part, v, more = strings.Cut(v, ",")
		if strings.EqualFold(strings.TrimSpace(part), token) {
			return true
		}
	}
	return false
}

// Dialer establishes client WebSocket connections, each reading through
// a pooled buffer (see Conn).
type Dialer struct {
	// MaxMessageSize bounds reassembled message sizes on the resulting
	// connection; 0 means unlimited.
	MaxMessageSize int64
	// EnableCompression offers permessage-deflate (RFC 7692,
	// no-context-takeover profile) during the handshake.
	EnableCompression bool
	// NetDial overrides the transport dial, e.g. for tests or custom
	// source addresses. Defaults to a net.Dialer respecting ctx.
	NetDial func(ctx context.Context, network, addr string) (net.Conn, error)
	// Header is sent with the handshake request (e.g. Origin,
	// User-Agent — the beacon forwards the embedding page's values).
	Header http.Header
}

// defaultNetDialer is the transport dialer when NetDial is nil.
var defaultNetDialer net.Dialer

// Dial connects to a ws:// URL and performs the opening handshake.
// (wss:// is not supported: the collector terminates TLS upstream in
// deployment, and the simulator runs loopback.)
//
// The *http.Response is non-nil only when the server answered with
// something other than 101 Switching Protocols: the rejection, complete
// with its headers (Retry-After among them), accompanies the error. A
// successful dial, and a 101 that fails a handshake check, return nil.
func (d *Dialer) Dial(ctx context.Context, rawURL string) (*Conn, *http.Response, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, nil, fmt.Errorf("wsproto: parsing url: %w", err)
	}
	return d.DialURL(ctx, u)
}

// DialURL is Dial for a URL the caller has already parsed; a client
// that dials one endpoint per impression parses it once.
func (d *Dialer) DialURL(ctx context.Context, u *url.URL) (*Conn, *http.Response, error) {
	if u.Scheme != "ws" {
		return nil, nil, fmt.Errorf("wsproto: unsupported scheme %q", u.Scheme)
	}
	host := u.Host
	if u.Port() == "" {
		host = net.JoinHostPort(u.Hostname(), "80")
	}
	dial := d.NetDial
	if dial == nil {
		dial = defaultNetDialer.DialContext
	}
	nc, err := dial(ctx, "tcp", host)
	if err != nil {
		return nil, nil, fmt.Errorf("wsproto: dialing %s: %w", host, err)
	}

	// Honour context cancellation during the handshake.
	if deadline, ok := ctx.Deadline(); ok {
		_ = nc.SetDeadline(deadline)
	}
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { nc.Close() })
		defer stop()
	}

	var key [24]byte
	s := getScratch()
	if _, err := rand.Read(s.rnd[:]); err != nil {
		s.release()
		nc.Close()
		return nil, nil, fmt.Errorf("wsproto: generating handshake key: %w", err)
	}
	base64.StdEncoding.Encode(key[:], s.rnd[:])
	s.buf = d.appendRequest(s.buf[:0], u, key[:])
	_, err = nc.Write(s.buf)
	s.release()
	if err != nil {
		nc.Close()
		return nil, nil, &transportError{op: "writing handshake request", err: err}
	}

	br := getHeadReader(nc)
	compress, resp, err := readUpgradeResponse(br, key[:], d.EnableCompression)
	if err != nil {
		nc.Close()
		if resp == nil { // a rejection's body still reads from br
			putHeadReader(br)
		}
		return nil, resp, err
	}
	_ = nc.SetDeadline(time.Time{})
	conn := newConn(nc, br, RoleClient, d.MaxMessageSize)
	conn.pooled = true
	conn.compress = compress
	return conn, nil, nil
}

// appendRequest appends the opening handshake request for u carrying
// the given base64 key.
func (d *Dialer) appendRequest(dst []byte, u *url.URL, key []byte) []byte {
	dst = append(dst, "GET "...)
	dst = append(dst, u.RequestURI()...)
	dst = append(dst, " HTTP/1.1\r\nHost: "...)
	dst = append(dst, u.Host...)
	dst = append(dst, "\r\nUpgrade: websocket\r\nConnection: Upgrade\r\nSec-WebSocket-Key: "...)
	dst = append(dst, key...)
	dst = append(dst, "\r\nSec-WebSocket-Version: 13\r\n"...)
	if d.EnableCompression {
		dst = append(dst, "Sec-WebSocket-Extensions: "+offerExtension+"\r\n"...)
	}
	for name, vals := range d.Header {
		for _, v := range vals {
			dst = append(dst, name...)
			dst = append(dst, ": "...)
			dst = append(dst, v...)
			dst = append(dst, "\r\n"...)
		}
	}
	return append(dst, "\r\n"...)
}

// readUpgradeResponse reads the server's answer to the opening
// handshake that sent key. A 101 is validated where it lies in br's
// buffer — status line through blank line must fit it, maxHead bytes —
// then consumed, leaving br at the first frame. Anything else goes to
// http.ReadResponse, uncapped, and comes back whole with the error.
func readUpgradeResponse(br *bufio.Reader, key []byte, offered bool) (compress bool, _ *http.Response, _ error) {
	const switching = "HTTP/1.1 101"
	if head, _ := br.Peek(len(switching)); string(head) != switching {
		resp, err := http.ReadResponse(br, &http.Request{Method: http.MethodGet})
		if err != nil {
			return false, nil, fmt.Errorf("wsproto: reading handshake response: %w", err)
		}
		// A 101 spelled any other way (HTTP/1.0, padded) is not one.
		return false, resp, fmt.Errorf("wsproto: handshake rejected with status %d", resp.StatusCode)
	}
	hdr, err := peekHeader(br)
	if err != nil {
		if errors.Is(err, bufio.ErrBufferFull) {
			return false, nil, fmt.Errorf("wsproto: handshake response header exceeds %d bytes", maxHead)
		}
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return false, nil, &transportError{op: "reading handshake response", err: err}
	}
	if compress, err = checkUpgradeResponse(hdr, key, offered); err != nil {
		return false, nil, err
	}
	_, _ = br.Discard(len(hdr)) // buffered: cannot fail
	return compress, nil, nil
}

// peekHeader returns br's buffered bytes from the status line through
// the blank line that ends the header, reading more as needed but never
// past the buffer's size (bufio.ErrBufferFull then), and consumes
// nothing.
func peekHeader(br *bufio.Reader) ([]byte, error) {
	line := 0 // offset of the first line not yet seen whole
	for {
		buf, _ := br.Peek(br.Buffered())
		for {
			nl := bytes.IndexByte(buf[line:], '\n')
			if nl < 0 {
				break
			}
			blank := nl == 0 || nl == 1 && buf[line] == '\r'
			line += nl + 1
			if blank {
				return buf[:line], nil
			}
		}
		if _, err := br.Peek(len(buf) + 1); err != nil {
			return nil, err
		}
	}
}

// checkUpgradeResponse applies the client's handshake checks to the
// header of a 101 answer — everything Dial used to ask of the
// http.Response it no longer builds: both upgrade tokens, the accept
// value for key, and extension agreement. Field syntax is held to
// net/textproto's rules; three leniencies of http.ReadResponse are not
// kept, none of which a WebSocket server has cause to need: a status
// line other than "HTTP/1.1 101[ reason]", obsolete line folding, and a
// Content-Length or Transfer-Encoding on a 1xx (RFC 9110 §6.4.1 forbids
// both).
func checkUpgradeResponse(hdr, key []byte, offered bool) (compress bool, err error) {
	status, rest := cutLine(hdr)
	if s := string(status); s != "HTTP/1.1 101" && !strings.HasPrefix(s, "HTTP/1.1 101 ") {
		return false, fmt.Errorf("wsproto: malformed handshake status line %q", status)
	}
	var (
		upgrade, connection bool
		sawAccept, acceptOK bool
		sawExtension        bool
		extension           string
		accept              [28]byte
		line                []byte
	)
	for {
		line, rest = cutLine(rest)
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 || !validFieldLine(line[:colon], line[colon+1:]) {
			return false, fmt.Errorf("wsproto: malformed handshake response header line %q", line)
		}
		value := bytes.Trim(line[colon+1:], " \t")
		// Only the first instance of a single-valued field counts, as
		// with http.Header.Get.
		switch field := string(line[:colon]); {
		case strings.EqualFold(field, "Upgrade"):
			upgrade = upgrade || valueContainsToken(string(value), "websocket")
		case strings.EqualFold(field, "Connection"):
			connection = connection || valueContainsToken(string(value), "upgrade")
		case strings.EqualFold(field, "Sec-WebSocket-Accept"):
			if !sawAccept {
				sawAccept = true
				acceptOK = bytes.Equal(value, appendAcceptKey(accept[:0], string(key)))
			}
		case strings.EqualFold(field, "Sec-WebSocket-Extensions"):
			if !sawExtension {
				sawExtension = true
				extension = string(value)
			}
		case strings.EqualFold(field, "Content-Length"), strings.EqualFold(field, "Transfer-Encoding"):
			return false, fmt.Errorf("wsproto: handshake response carries %s", line[:colon])
		}
	}
	if !upgrade || !connection {
		return false, errors.New("wsproto: handshake response missing upgrade headers")
	}
	if !acceptOK {
		return false, errors.New("wsproto: bad Sec-WebSocket-Accept")
	}
	if extension != "" {
		if !offered {
			return false, fmt.Errorf("wsproto: server accepted extension we never offered: %q", extension)
		}
		return extensionAgreed(extension)
	}
	return false, nil
}

// cutLine splits b after its first line, returned without its "\n" or
// "\r\n".
func cutLine(b []byte) (line, rest []byte) {
	line, rest, _ = bytes.Cut(b, []byte{'\n'})
	return bytes.TrimSuffix(line, []byte{'\r'}), rest
}

// validFieldLine holds a header line to net/textproto's syntax: a
// non-empty name of token characters (a space before the colon is
// tolerated there, and makes the name match nothing), a value without
// control characters, and no leading whitespace (a tab is no token
// character either), which would be a folded continuation.
func validFieldLine(name, value []byte) bool {
	if len(name) == 0 || name[0] == ' ' {
		return false
	}
	for _, c := range name {
		alnum := '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
		if !alnum && c != ' ' && strings.IndexByte("!#$%&'*+-.^_`|~", c) < 0 {
			return false
		}
	}
	for _, c := range value {
		if c < ' ' && c != '\t' || c == 0x7f {
			return false
		}
	}
	return true
}
