package wsproto

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
)

// Reference oracles: the encoder and the handshake logic as they stood
// before the allocation-light rewrite, kept verbatim so the tests can
// hold the rewrite to the same bytes and the same verdicts.

// referenceWriteFrame is the two-write frame encoder: header, then a
// masked copy of the payload.
func referenceWriteFrame(w io.Writer, f Frame) error {
	if f.Opcode.IsControl() {
		if !f.Fin {
			return ErrFragmentedControl
		}
		if len(f.Payload) > maxControlPayload {
			return ErrControlTooLong
		}
	}
	var hdr [14]byte
	n := 2
	b0 := byte(f.Opcode) & 0x0F
	if f.Fin {
		b0 |= 0x80
	}
	if f.Rsv1 {
		b0 |= 0x40
	}
	hdr[0] = b0

	var b1 byte
	plen := len(f.Payload)
	switch {
	case plen <= 125:
		b1 = byte(plen)
	case plen <= 0xFFFF:
		b1 = 126
		binary.BigEndian.PutUint16(hdr[2:4], uint16(plen))
		n += 2
	default:
		b1 = 127
		binary.BigEndian.PutUint64(hdr[2:10], uint64(plen))
		n += 8
	}
	if f.Masked {
		b1 |= 0x80
	}
	hdr[1] = b1
	if f.Masked {
		copy(hdr[n:n+4], f.MaskKey[:])
		n += 4
	}
	if _, err := w.Write(hdr[:n]); err != nil {
		return fmt.Errorf("wsproto: writing frame header: %w", err)
	}
	if plen == 0 {
		return nil
	}
	payload := f.Payload
	if f.Masked {
		masked := make([]byte, plen)
		copy(masked, payload)
		MaskBytes(f.MaskKey, 0, masked)
		payload = masked
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("wsproto: writing frame payload: %w", err)
	}
	return nil
}

// referenceRequest is the fmt-built opening handshake request.
func referenceRequest(d *Dialer, u *url.URL, key string) string {
	path := u.RequestURI()
	if path == "" {
		path = "/"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "GET %s HTTP/1.1\r\n", path)
	fmt.Fprintf(&sb, "Host: %s\r\n", u.Host)
	sb.WriteString("Upgrade: websocket\r\nConnection: Upgrade\r\n")
	fmt.Fprintf(&sb, "Sec-WebSocket-Key: %s\r\nSec-WebSocket-Version: 13\r\n", key)
	if d.EnableCompression {
		fmt.Fprintf(&sb, "Sec-WebSocket-Extensions: %s\r\n", offerExtension)
	}
	for name, vals := range d.Header {
		for _, v := range vals {
			fmt.Fprintf(&sb, "%s: %s\r\n", name, v)
		}
	}
	sb.WriteString("\r\n")
	return sb.String()
}

// referenceUpgradeResponse is the concatenated 101 answer.
func referenceUpgradeResponse(key, extension string) string {
	extHeader := ""
	if extension != "" {
		extHeader = "Sec-WebSocket-Extensions: " + extension + "\r\n"
	}
	return "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		extHeader +
		"Sec-WebSocket-Accept: " + AcceptKey(key) + "\r\n\r\n"
}

// referenceContainsToken is the strings.Split token scan.
func referenceContainsToken(h http.Header, name, token string) bool {
	for _, v := range h.Values(name) {
		for _, part := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(part), token) {
				return true
			}
		}
	}
	return false
}

// referenceValidKey is the DecodeString key check.
func referenceValidKey(key string) bool {
	raw, err := base64.StdEncoding.DecodeString(key)
	return err == nil && len(raw) == 16
}

// referenceAccepts says whether the old Dial would have accepted raw as
// the answer to a handshake that sent key: http.ReadResponse, then the
// checks on the http.Response. The in-place parser is deliberately
// stricter than http.ReadResponse in ways a WebSocket server never
// needs (see checkUpgradeResponse); each is a precondition here, so
// that inside them the two must agree exactly.
func referenceAccepts(raw []byte, key string, offered bool) bool {
	if _, ok := referenceHeaderEnd(raw); !ok {
		return false
	}
	resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(raw)), &http.Request{Method: http.MethodGet})
	if err != nil {
		return false
	}
	// Precondition: no message-body framing on a 1xx.
	if len(resp.Header["Content-Length"]) > 0 || len(resp.TransferEncoding) > 0 {
		return false
	}

	if resp.StatusCode != http.StatusSwitchingProtocols {
		return false
	}
	if !referenceContainsToken(resp.Header, "Upgrade", "websocket") ||
		!referenceContainsToken(resp.Header, "Connection", "upgrade") {
		return false
	}
	if got := resp.Header.Get("Sec-Websocket-Accept"); got != AcceptKey(key) {
		return false
	}
	if ext := resp.Header.Get("Sec-Websocket-Extensions"); ext != "" {
		if !offered {
			return false
		}
		if _, err := extensionAgreed(ext); err != nil {
			return false
		}
	}
	return true
}

// referenceHeaderEnd finds where raw's header ends (after its blank
// line) and checks the parser's preconditions on its shape: it fits the
// cap, opens with the canonical status line, and folds no line.
func referenceHeaderEnd(raw []byte) (end int, ok bool) {
	for {
		nl := bytes.IndexByte(raw[end:], '\n')
		if nl < 0 {
			return 0, false
		}
		line := strings.TrimSuffix(string(raw[end:end+nl]), "\r")
		first := end == 0
		end += nl + 1
		if line == "" {
			return end, !first && end <= maxHead
		}
		if first && line != "HTTP/1.1 101" && !strings.HasPrefix(line, "HTTP/1.1 101 ") {
			return 0, false
		}
		if line[0] == ' ' || line[0] == '\t' {
			return 0, false
		}
	}
}
