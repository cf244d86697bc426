package wsproto

import (
	"bufio"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"time"
	"unicode/utf8"
)

// Role says which endpoint of the connection we are; it determines the
// masking rules (§5.1: client frames MUST be masked, server frames MUST
// NOT be).
type Role int

const (
	// RoleServer is the accepting endpoint.
	RoleServer Role = iota
	// RoleClient is the initiating endpoint.
	RoleClient
)

// CloseError is returned by read operations after the closing handshake
// (or an abnormal closure). It carries the peer's status code and reason.
type CloseError struct {
	Code   CloseCode
	Reason string
}

// Error implements error.
func (e *CloseError) Error() string {
	return fmt.Sprintf("wsproto: connection closed with code %d: %s", e.Code, e.Reason)
}

// ErrWriteAfterClose is returned when writing after the close handshake
// has started locally.
var ErrWriteAfterClose = errors.New("wsproto: write after close")

// Conn is an established WebSocket connection. Reads must be confined to
// one goroutine; writes are internally serialised and may come from
// multiple goroutines (ReadMessage itself writes pong and close replies).
// A Conn from a Dialer or a Front reads through a pooled buffer, which
// the reading goroutine gives back once ReadMessage has failed for good;
// Close does not, as another goroutine may be inside a read.
type Conn struct {
	nc     net.Conn
	br     *bufio.Reader // nil once the read side has ended
	pooled bool          // br is headReaderPool's
	role   Role

	// maxMessage bounds the reassembled message size; 0 means unlimited.
	maxMessage int64

	// compress is true when permessage-deflate (no context takeover)
	// was negotiated during the opening handshake.
	compress bool

	writeMu    sync.Mutex
	wroteClose bool

	readErr error // sticky read error

	// pingHandler, if set, observes incoming pings after the automatic
	// pong reply. pongHandler observes incoming pongs.
	pingHandler func(payload []byte)
	pongHandler func(payload []byte)

	// reuseReadBuf, when set via ReuseReadBuffer, makes ReadMessage
	// recycle readBuf for frame payloads instead of allocating per
	// frame; the returned message then aliases the buffer.
	reuseReadBuf bool
	readBuf      []byte

	// readHdr is readFrame's header scratch, here so that reading a
	// frame allocates nothing.
	readHdr frameHeader
}

// ReuseReadBuffer opts this connection into read-buffer recycling: the
// payload ReadMessage returns is only valid until the next ReadMessage
// call (fragmented and compressed messages are still reassembled into
// their own buffers). For receivers that decode or copy each message
// before reading the next — the collector and gateway do — this removes
// the per-frame payload allocation. Must be called before reads begin.
func (c *Conn) ReuseReadBuffer() { c.reuseReadBuf = true }

func newConn(nc net.Conn, br *bufio.Reader, role Role, maxMessage int64) *Conn {
	return &Conn{
		nc:         nc,
		br:         br,
		role:       role,
		maxMessage: maxMessage,
	}
}

// NetConn returns the underlying transport connection.
func (c *Conn) NetConn() net.Conn { return c.nc }

// RemoteAddr returns the peer address.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// LocalAddr returns the local address.
func (c *Conn) LocalAddr() net.Addr { return c.nc.LocalAddr() }

// PeerAddr extracts the IP of a connection's RemoteAddr, the one way
// every tier derives the address an impression is accounted under. A
// TCP peer already holds its address in binary; only a transport that
// knows its peer by text alone needs the string parsed. IPv4-mapped IPv6
// unmaps, so one client is one address whichever socket family accepted
// it.
func PeerAddr(a net.Addr) (netip.Addr, error) {
	if tcp, ok := a.(*net.TCPAddr); ok {
		if ap := tcp.AddrPort(); ap.IsValid() {
			return ap.Addr().Unmap(), nil
		}
	}
	ap, err := netip.ParseAddrPort(a.String())
	if err != nil {
		return netip.Addr{}, fmt.Errorf("wsproto: parsing remote addr %q: %w", a.String(), err)
	}
	return ap.Addr().Unmap(), nil
}

// SetReadDeadline sets the transport read deadline.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.nc.SetReadDeadline(t) }

// SetWriteDeadline sets the transport write deadline.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.nc.SetWriteDeadline(t) }

// SetPingHandler registers f to observe incoming pings (after the
// automatic pong reply). Must be called before reads begin.
func (c *Conn) SetPingHandler(f func(payload []byte)) { c.pingHandler = f }

// SetPongHandler registers f to observe incoming pongs. Must be called
// before reads begin.
func (c *Conn) SetPongHandler(f func(payload []byte)) { c.pongHandler = f }

// WriteMessage sends a complete data message in a single frame. op must
// be OpText or OpBinary; text payloads must be valid UTF-8. When
// permessage-deflate is negotiated, payloads above a small threshold
// are compressed transparently.
func (c *Conn) WriteMessage(op Opcode, payload []byte) error {
	if !op.IsData() {
		return fmt.Errorf("wsproto: WriteMessage with non-data opcode %v", op)
	}
	if op == OpText && !utf8.Valid(payload) {
		return fmt.Errorf("wsproto: text message is not valid UTF-8")
	}
	if c.compress && len(payload) >= compressThreshold {
		compressed, err := deflateMessage(payload)
		if err != nil {
			return err
		}
		return c.writeFrame(Frame{Fin: true, Rsv1: true, Opcode: op, Payload: compressed})
	}
	return c.writeFrame(Frame{Fin: true, Opcode: op, Payload: payload})
}

// WriteText sends a text message.
func (c *Conn) WriteText(s string) error { return c.WriteMessage(OpText, []byte(s)) }

// Ping sends a ping control frame.
func (c *Conn) Ping(payload []byte) error {
	return c.writeFrame(Frame{Fin: true, Opcode: OpPing, Payload: payload})
}

func (c *Conn) writeFrame(f Frame) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.wroteClose {
		return ErrWriteAfterClose
	}
	return c.writeFrameLocked(f)
}

func (c *Conn) writeFrameLocked(f Frame) error {
	s := getScratch()
	defer s.release()
	// Masking direction (§5.1) is the connection's, never the caller's.
	f.Masked = c.role == RoleClient
	if f.Masked {
		if _, err := rand.Read(s.rnd[:4]); err != nil {
			return fmt.Errorf("wsproto: generating mask key: %w", err)
		}
		copy(f.MaskKey[:], s.rnd[:4])
	}
	return s.writeFrame(c.nc, f)
}

// closeWriteTimeout bounds how long Close waits to flush the close frame
// to a peer that has stopped reading; the transport is torn down either
// way.
const closeWriteTimeout = time.Second

// Close performs the closing handshake: it sends a close frame with the
// given code and reason (bounded by a short write deadline, so a dead
// peer cannot stall the close), then closes the transport. It does not
// wait for the peer's close reply; callers that want a clean handshake
// should keep reading until ReadMessage returns a *CloseError before
// calling Close. Close is idempotent: once the close frame has gone out,
// a transport that is already closed — by an earlier Close, such as the
// one ReadMessage issues to echo the peer's close frame — is success.
func (c *Conn) Close(code CloseCode, reason string) error {
	return c.close(code, reason, nil)
}

// close is Close with the reason optionally given as an error whose
// text is wanted only if a close frame actually goes out: when this
// side has already sent one, or cause says the transport is already
// closed, nothing is formatted and nothing is written.
func (c *Conn) close(code CloseCode, reason string, cause error) error {
	c.writeMu.Lock()
	var writeErr error
	if !c.wroteClose {
		c.wroteClose = true
		if !errors.Is(cause, net.ErrClosed) {
			if cause != nil {
				reason = cause.Error()
			}
			var payload [maxControlPayload]byte
			_ = c.nc.SetWriteDeadline(time.Now().Add(closeWriteTimeout))
			writeErr = c.writeFrameLocked(Frame{
				Fin:     true,
				Opcode:  OpClose,
				Payload: appendClosePayload(payload[:0], code, reason),
			})
		}
	}
	c.writeMu.Unlock()
	closeErr := c.nc.Close()
	if writeErr != nil {
		return writeErr
	}
	if errors.Is(closeErr, net.ErrClosed) {
		return nil
	}
	return closeErr
}

// ReadMessage returns the next complete data message, transparently
// handling control frames: pings are answered with pongs, pongs are
// delivered to the pong handler, and a close frame completes the closing
// handshake (echoing the code) and surfaces a *CloseError. Fragmented
// messages are reassembled up to the connection's message size limit.
func (c *Conn) ReadMessage() (Opcode, []byte, error) {
	if c.readErr != nil {
		return 0, nil, c.readErr
	}
	op, payload, err := c.readMessage()
	if err != nil {
		c.endRead(err)
		// On protocol errors, tell the peer why before dropping.
		// (readMessage returns a *CloseError bare, never wrapped.)
		if _, closed := err.(*CloseError); !closed && !errors.Is(err, io.EOF) {
			code := CloseProtocolError
			if errors.Is(err, ErrFrameTooLarge) {
				code = CloseMessageTooBig
			}
			_ = c.close(code, "", err)
		}
	}
	return op, payload, err
}

// endRead ends the read side with err and gives a pooled reader back.
// Only the reading goroutine calls it; after it nothing touches br.
func (c *Conn) endRead(err error) {
	if c.readErr == nil {
		c.readErr = err
	}
	if c.pooled {
		putHeadReader(c.br)
	}
	c.br, c.pooled = nil, false
}

func (c *Conn) readMessage() (Opcode, []byte, error) {
	var (
		msgOp      Opcode
		buf        []byte
		inProg     bool
		compressed bool
	)
	for {
		var frameBuf []byte
		if c.reuseReadBuf {
			frameBuf = c.readBuf
		}
		f, err := readFrame(c.br, c.frameLimit(), frameBuf, &c.readHdr)
		if err != nil {
			return 0, nil, err
		}
		if c.reuseReadBuf && cap(f.Payload) > cap(c.readBuf) {
			c.readBuf = f.Payload
		}
		// Masking direction rules (§5.1).
		if c.role == RoleServer && !f.Masked {
			return 0, nil, fmt.Errorf("wsproto: unmasked frame from client")
		}
		if c.role == RoleClient && f.Masked {
			return 0, nil, fmt.Errorf("wsproto: masked frame from server")
		}
		// RSV1 is only meaningful with permessage-deflate, and only on
		// the first frame of a data message (RFC 7692 §6.1).
		if f.Rsv1 {
			if !c.compress || !f.Opcode.IsData() {
				return 0, nil, fmt.Errorf("wsproto: unexpected RSV1 bit")
			}
		}

		switch {
		case f.Opcode == OpPing:
			if err := c.writeFrame(Frame{Fin: true, Opcode: OpPong, Payload: f.Payload}); err != nil {
				return 0, nil, fmt.Errorf("wsproto: replying to ping: %w", err)
			}
			if c.pingHandler != nil {
				c.pingHandler(f.Payload)
			}
		case f.Opcode == OpPong:
			if c.pongHandler != nil {
				c.pongHandler(f.Payload)
			}
		case f.Opcode == OpClose:
			code, reason, err := DecodeClosePayload(f.Payload)
			if err != nil {
				return 0, nil, err
			}
			// Echo the close to complete the handshake (§7.1.1), then
			// drop the transport.
			echo := CloseNormal
			if code != CloseNoStatus {
				echo = code
			}
			_ = c.Close(echo, "")
			return 0, nil, &CloseError{Code: code, Reason: reason}
		case f.Opcode == OpContinuation:
			if !inProg {
				return 0, nil, fmt.Errorf("wsproto: continuation frame without initial frame")
			}
			if c.maxMessage > 0 && int64(len(buf))+int64(len(f.Payload)) > c.maxMessage {
				return 0, nil, ErrFrameTooLarge
			}
			buf = append(buf, f.Payload...)
			if f.Fin {
				return c.finishMessage(msgOp, buf, compressed)
			}
		case f.Opcode.IsData():
			if inProg {
				return 0, nil, fmt.Errorf("wsproto: new data frame during fragmented message")
			}
			if f.Fin {
				return c.finishMessage(f.Opcode, f.Payload, f.Rsv1)
			}
			msgOp = f.Opcode
			inProg = true
			compressed = f.Rsv1
			buf = append(buf[:0], f.Payload...)
		}
	}
}

// finishMessage applies per-message decompression and text validation.
func (c *Conn) finishMessage(op Opcode, payload []byte, compressed bool) (Opcode, []byte, error) {
	if compressed {
		inflated, err := inflateMessage(payload, c.maxMessage)
		if err != nil {
			return 0, nil, err
		}
		payload = inflated
	}
	if op == OpText && !utf8.Valid(payload) {
		return 0, nil, &CloseError{Code: CloseInvalidPayload, Reason: "invalid UTF-8"}
	}
	return op, payload, nil
}

func (c *Conn) frameLimit() int64 {
	return c.maxMessage
}
