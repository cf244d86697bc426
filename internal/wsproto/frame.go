// Package wsproto implements the WebSocket protocol (RFC 6455): frame
// codec, masking, client and server opening handshakes, control-frame
// handling and the closing handshake. It is the transport the paper's
// methodology uses between the JavaScript beacon inside the ad iframe
// and the central collector (§3), reimplemented on the Go standard
// library alone.
//
// The subset implemented is complete for data exchange: text and binary
// messages, fragmentation and reassembly, ping/pong, close with status
// codes, payload-size limits and strict masking rules (client-to-server
// frames MUST be masked, server-to-client MUST NOT be), plus the
// permessage-deflate extension in its no-context-takeover profile
// (compress.go). Subprotocol negotiation is intentionally not
// implemented; the beacon payload is one short frame.
//
// One connection is one ad impression, so the per-connection path is
// kept allocation-light: handshake messages and frames are assembled in
// pooled scratch and leave in a single Write each, a 101 answer is
// checked where it lies in the read buffer, and transport errors are
// formatted only if someone reads them (DESIGN.md §16).
package wsproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Opcode identifies a WebSocket frame type.
type Opcode byte

// RFC 6455 §5.2 opcodes.
const (
	OpContinuation Opcode = 0x0
	OpText         Opcode = 0x1
	OpBinary       Opcode = 0x2
	OpClose        Opcode = 0x8
	OpPing         Opcode = 0x9
	OpPong         Opcode = 0xA
)

// IsControl reports whether the opcode is a control opcode (§5.5).
func (op Opcode) IsControl() bool { return op >= OpClose }

// IsData reports whether the opcode begins a data message.
func (op Opcode) IsData() bool { return op == OpText || op == OpBinary }

// String returns the opcode name.
func (op Opcode) String() string {
	switch op {
	case OpContinuation:
		return "continuation"
	case OpText:
		return "text"
	case OpBinary:
		return "binary"
	case OpClose:
		return "close"
	case OpPing:
		return "ping"
	case OpPong:
		return "pong"
	default:
		return fmt.Sprintf("opcode(%#x)", byte(op))
	}
}

// Frame is a single WebSocket frame.
type Frame struct {
	Fin bool
	// Rsv1 is the RSV1 bit; with permessage-deflate negotiated it marks
	// the first frame of a compressed message (RFC 7692 §6). Without a
	// negotiated extension the connection layer rejects it.
	Rsv1    bool
	Opcode  Opcode
	Masked  bool
	MaskKey [4]byte
	Payload []byte
}

// Protocol violation errors surfaced by the codec.
var (
	ErrReservedBits      = errors.New("wsproto: non-zero reserved bits")
	ErrReservedOpcode    = errors.New("wsproto: reserved opcode")
	ErrFragmentedControl = errors.New("wsproto: fragmented control frame")
	ErrControlTooLong    = errors.New("wsproto: control frame payload exceeds 125 bytes")
	ErrFrameTooLarge     = errors.New("wsproto: frame exceeds size limit")
	ErrBadPayloadLength  = errors.New("wsproto: non-minimal or invalid payload length encoding")
)

// maxControlPayload is the RFC 6455 §5.5 limit for control frames.
const maxControlPayload = 125

// AppendFrame appends the wire encoding of f — header, mask key and
// payload, masked with f.MaskKey when f.Masked — to dst and returns the
// extended slice. f.Payload is not modified. It is the one frame
// encoder: WriteFrame and Conn both write what it produces.
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	if f.Opcode.IsControl() {
		if !f.Fin {
			return dst, ErrFragmentedControl
		}
		if len(f.Payload) > maxControlPayload {
			return dst, ErrControlTooLong
		}
	}
	b0 := byte(f.Opcode) & 0x0F
	if f.Fin {
		b0 |= 0x80
	}
	if f.Rsv1 {
		b0 |= 0x40
	}
	var b1 byte
	if f.Masked {
		b1 = 0x80
	}
	plen := len(f.Payload)
	switch {
	case plen <= 125:
		dst = append(dst, b0, b1|byte(plen))
	case plen <= 0xFFFF:
		dst = append(dst, b0, b1|126)
		dst = binary.BigEndian.AppendUint16(dst, uint16(plen))
	default:
		dst = append(dst, b0, b1|127)
		dst = binary.BigEndian.AppendUint64(dst, uint64(plen))
	}
	if !f.Masked {
		return append(dst, f.Payload...), nil
	}
	dst = append(dst, f.MaskKey[:]...)
	start := len(dst)
	dst = append(dst, f.Payload...)
	MaskBytes(f.MaskKey, 0, dst[start:])
	return dst, nil
}

// WriteFrame encodes f and hands it to w in a single Write, so a frame
// is never torn between header and payload. If f.Masked, the payload is
// masked with f.MaskKey; f.Payload is not modified.
func WriteFrame(w io.Writer, f Frame) error {
	s := getScratch()
	defer s.release()
	return s.writeFrame(w, f)
}

// ReadFrame decodes one frame from r, enforcing maxPayload (0 means no
// limit). Masked payloads are unmasked in place before return.
func ReadFrame(r io.Reader, maxPayload int64) (Frame, error) {
	return ReadFrameBuf(r, maxPayload, nil)
}

// ReadFrameBuf is ReadFrame with a caller-supplied payload buffer: when
// buf has capacity for the frame's payload, the returned Frame.Payload
// aliases buf instead of a fresh allocation. Callers reusing a buffer
// across frames must be done with the previous frame's payload before
// reading the next.
func ReadFrameBuf(r io.Reader, maxPayload int64, buf []byte) (Frame, error) {
	return readFrame(r, maxPayload, buf, new(frameHeader))
}

// frameHeader holds the longest frame header: 2 fixed bytes, 8 of
// extended length, 4 of mask key. Everything read through the io.Reader
// interface escapes, so the caller provides it: a Conn keeps one.
type frameHeader [14]byte

func readFrame(r io.Reader, maxPayload int64, buf []byte, hdr *frameHeader) (Frame, error) {
	if _, err := io.ReadFull(r, hdr[:2]); err != nil {
		return Frame{}, err
	}
	var f Frame
	f.Fin = hdr[0]&0x80 != 0
	f.Rsv1 = hdr[0]&0x40 != 0
	if hdr[0]&0x30 != 0 {
		return Frame{}, ErrReservedBits
	}
	f.Opcode = Opcode(hdr[0] & 0x0F)
	if !validOpcode(f.Opcode) {
		return Frame{}, ErrReservedOpcode
	}
	f.Masked = hdr[1]&0x80 != 0
	plen := int64(hdr[1] & 0x7F)

	switch plen {
	case 126:
		ext := hdr[2:4]
		if _, err := io.ReadFull(r, ext); err != nil {
			return Frame{}, &transportError{op: "reading extended length", err: err}
		}
		plen = int64(binary.BigEndian.Uint16(ext))
		if plen <= 125 {
			return Frame{}, ErrBadPayloadLength
		}
	case 127:
		ext := hdr[2:10]
		if _, err := io.ReadFull(r, ext); err != nil {
			return Frame{}, &transportError{op: "reading extended length", err: err}
		}
		v := binary.BigEndian.Uint64(ext)
		if v > 1<<62 {
			return Frame{}, ErrBadPayloadLength
		}
		plen = int64(v)
		if plen <= 0xFFFF {
			return Frame{}, ErrBadPayloadLength
		}
	}

	if f.Opcode.IsControl() {
		if !f.Fin {
			return Frame{}, ErrFragmentedControl
		}
		if plen > maxControlPayload {
			return Frame{}, ErrControlTooLong
		}
	}
	if maxPayload > 0 && plen > maxPayload {
		return Frame{}, ErrFrameTooLarge
	}
	if f.Masked {
		if _, err := io.ReadFull(r, hdr[10:14]); err != nil {
			return Frame{}, &transportError{op: "reading mask key", err: err}
		}
		copy(f.MaskKey[:], hdr[10:14])
	}
	if plen > 0 {
		if int64(cap(buf)) >= plen {
			f.Payload = buf[:plen]
		} else {
			f.Payload = make([]byte, plen)
		}
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return Frame{}, &transportError{op: "reading payload", err: err}
		}
		if f.Masked {
			MaskBytes(f.MaskKey, 0, f.Payload)
		}
	}
	return f, nil
}

func validOpcode(op Opcode) bool {
	switch op {
	case OpContinuation, OpText, OpBinary, OpClose, OpPing, OpPong:
		return true
	default:
		return false
	}
}

// MaskBytes XORs b with the RFC 6455 masking key starting at position
// pos within the payload, returning the position after the last byte.
// Masking is an involution: applying it twice restores the input.
func MaskBytes(key [4]byte, pos int, b []byte) int {
	for i := range b {
		b[i] ^= key[(pos+i)&3]
	}
	return pos + len(b)
}

// CloseCode is a WebSocket close status code (§7.4.1).
type CloseCode uint16

// Standard close codes.
const (
	CloseNormal          CloseCode = 1000
	CloseGoingAway       CloseCode = 1001
	CloseProtocolError   CloseCode = 1002
	CloseNoStatus        CloseCode = 1005
	CloseInvalidPayload  CloseCode = 1007
	ClosePolicyViolation CloseCode = 1008
	CloseMessageTooBig   CloseCode = 1009
	CloseInternalError   CloseCode = 1011
	// CloseServiceRestart (1012) tells the peer the endpoint is
	// restarting or draining: the session ended through no fault of the
	// client, which should reconnect (after any hinted delay) and resume.
	CloseServiceRestart CloseCode = 1012
	// CloseTryAgainLater (1013) tells the peer the endpoint is
	// overloaded: reconnecting immediately will not help; back off first.
	CloseTryAgainLater CloseCode = 1013
)

// EncodeClosePayload builds a close-frame payload from a status code and
// an optional UTF-8 reason, truncated to fit the 125-byte control limit.
func EncodeClosePayload(code CloseCode, reason string) []byte {
	return appendClosePayload(nil, code, reason)
}

func appendClosePayload(dst []byte, code CloseCode, reason string) []byte {
	if len(reason) > maxControlPayload-2 {
		reason = reason[:maxControlPayload-2]
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(code))
	return append(dst, reason...)
}

// DecodeClosePayload parses a close-frame payload. An empty payload
// yields CloseNoStatus per §7.1.5. A one-byte payload is a protocol
// error, and so is one over the 125 bytes a control frame carries.
func DecodeClosePayload(p []byte) (CloseCode, string, error) {
	switch {
	case len(p) == 0:
		return CloseNoStatus, "", nil
	case len(p) == 1 || len(p) > maxControlPayload:
		return 0, "", fmt.Errorf("wsproto: close payload of %d bytes", len(p))
	default:
		return CloseCode(binary.BigEndian.Uint16(p[:2])), string(p[2:]), nil
	}
}
