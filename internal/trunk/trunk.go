// Package trunk defines the wire protocol a forwarding tier
// (internal/edge: the gateway and the router) speaks to a /trunk
// endpoint: a small pool of persistent WebSocket connections carrying
// every beacon session the tier terminates. Each WebSocket binary
// message is a batch of length-prefixed frames; each frame names a
// logical stream (one per beacon session) so a single trunk carries
// thousands of sessions without per-session sockets.
//
// The protocol has four frames. Hello opens a trunk and is refused
// unless it names this build's Version; Receiver, the one receiving end
// every terminating tier runs, refuses a first batch that does not open
// with one. The Commit frame is the unit of record,
// sent once a session has ended: it is self-contained (full payload with
// every event, connection facts, measured exposure, edge trace stages),
// so the edge can replay an unacknowledged commit on any trunk, to a
// freshly restarted collector, with no per-stream state transfer. Ack
// and Reject answer it. Delivery is at-least-once; the collector's store
// counts each leg of an impression nonce once (every forwarded payload
// carries its nonce and leg), so it drops a retransmission, across its
// own restarts too.
//
// Frames encode as [type byte][uvarint stream][fields], strings as
// uvarint-length-prefixed bytes, and batches as a concatenation of
// uvarint-length-prefixed frames. A Commit's payload is the impression
// in the beacon binary wire encoding (beacon.Payload.AppendBinary),
// whatever wire the session spoke: this is protocol version 3, and an
// edge and the receivers it trunks into (collector, router) upgrade
// together.
package trunk

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"
)

// Version is the trunk protocol version carried in the Hello frame; a
// receiver closes a trunk whose Hello names another. Version 2 carried
// a text-encoded payload in its Commit; version 1 had two more frames.
const Version = 3

// MaxMessage bounds one batch message at both ends of a trunk. The
// largest commit is one payload of beacon.MaxEvents events of at most
// 16 bytes each (kind, millisecond time, fraction): 1 MiB, plus its
// first message's strings. The batch it rides holds at most 32 KiB of
// other commits ahead of it. 2 MiB holds both.
const MaxMessage = 2 << 20

// TokenHeader is the HTTP header a gateway presents during the trunk
// handshake when the collector requires a shared admission token.
const TokenHeader = "X-Adaudit-Trunk-Token"

// Type discriminates trunk frames. Values 2 and 3 were version 1's
// advisory Open and Event frames; they stay unassigned, so a version-1
// peer's batch fails to decode.
type Type byte

const (
	// Hello is the first frame on a fresh trunk: protocol version and
	// the gateway's identity (gateway → collector).
	Hello Type = 1
	// Commit closes a stream's accounting: the full final payload plus
	// the connection-derived facts the gateway measured. The only frame
	// with delivery guarantees (gateway → collector, at-least-once).
	Commit Type = 4
	// Ack confirms a Commit was durably ingested (collector → gateway).
	Ack Type = 5
	// Reject refuses a Commit permanently — replaying it cannot succeed
	// (collector → gateway).
	Reject Type = 6
)

// String names the frame type for logs and metrics labels.
func (t Type) String() string {
	switch t {
	case Hello:
		return "hello"
	case Commit:
		return "commit"
	case Ack:
		return "ack"
	case Reject:
		return "reject"
	}
	return fmt.Sprintf("type-%d", byte(t))
}

// Stage is one gateway-measured trace stage riding a Commit frame:
// the offset is measured from the beacon's stamped send time, the same
// origin the collector's adopted trace uses.
type Stage struct {
	Name   string
	Offset time.Duration
}

// Frame is one decoded trunk frame. Fields beyond Type and Stream are
// populated per type; unused fields are zero.
type Frame struct {
	Type   Type
	Stream uint64

	// Hello.
	Version   int
	GatewayID string

	// Commit: the connection-derived facts, the full final payload
	// (events merged, nonce present; beacon binary wire bytes) and the
	// edge's trace stages.
	RemoteIP    string
	ConnectedAt int64 // unix nanoseconds
	Payload     string
	Exposure    time.Duration
	Stages      []Stage

	// Reject.
	Reason string
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendBody encodes the frame without its batch length prefix.
func appendBody(dst []byte, f Frame) []byte {
	dst = append(dst, byte(f.Type))
	dst = binary.AppendUvarint(dst, f.Stream)
	switch f.Type {
	case Hello:
		dst = binary.AppendUvarint(dst, uint64(f.Version))
		dst = appendString(dst, f.GatewayID)
	case Commit:
		dst = appendString(dst, f.RemoteIP)
		dst = binary.AppendVarint(dst, f.ConnectedAt)
		dst = binary.AppendVarint(dst, int64(f.Exposure))
		dst = appendString(dst, f.Payload)
		dst = binary.AppendUvarint(dst, uint64(len(f.Stages)))
		for _, st := range f.Stages {
			dst = appendString(dst, st.Name)
			dst = binary.AppendVarint(dst, int64(st.Offset))
		}
	case Ack:
		// Stream only.
	case Reject:
		dst = appendString(dst, f.Reason)
	}
	return dst
}

// uvarintLen returns the encoded size of v under binary.AppendUvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// varintLen returns the encoded size of v under binary.AppendVarint
// (zigzag then uvarint).
func varintLen(v int64) int {
	return uvarintLen(uint64(v)<<1 ^ uint64(v>>63))
}

func stringLen(s string) int {
	return uvarintLen(uint64(len(s))) + len(s)
}

// bodySize returns the exact encoded size of f's body — the mirror of
// appendBody, which lets AppendFrame write the length prefix first and
// encode straight into the batch buffer, grown once, instead of through
// an intermediate allocation.
func bodySize(f Frame) int {
	n := 1 + uvarintLen(f.Stream)
	switch f.Type {
	case Hello:
		n += uvarintLen(uint64(f.Version)) + stringLen(f.GatewayID)
	case Commit:
		n += stringLen(f.RemoteIP) + varintLen(f.ConnectedAt) +
			varintLen(int64(f.Exposure)) + stringLen(f.Payload) +
			uvarintLen(uint64(len(f.Stages)))
		for _, st := range f.Stages {
			n += stringLen(st.Name) + varintLen(int64(st.Offset))
		}
	case Ack:
		// Stream only.
	case Reject:
		n += stringLen(f.Reason)
	}
	return n
}

// AppendFrame appends f to a batch buffer: a uvarint length prefix
// followed by the frame body. The result of successive AppendFrame
// calls is a valid batch for DecodeBatch.
func AppendFrame(dst []byte, f Frame) []byte {
	n := bodySize(f)
	dst = slices.Grow(dst, uvarintLen(uint64(n))+n)
	dst = binary.AppendUvarint(dst, uint64(n))
	return appendBody(dst, f)
}

// decoder walks one frame body.
type decoder struct {
	b   []byte
	pos int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("trunk: "+format, args...)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.pos:])
	if n <= 0 {
		d.fail("truncated uvarint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.pos:])
	if n <= 0 {
		d.fail("truncated varint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.pos) {
		d.fail("string length %d exceeds remaining %d bytes", n, len(d.b)-d.pos)
		return ""
	}
	s := string(d.b[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s
}

// maxStages bounds the per-commit stage list so a corrupt length
// cannot drive a huge allocation.
const maxStages = 64

// decodeBody parses one frame body.
func decodeBody(b []byte) (Frame, error) {
	if len(b) == 0 {
		return Frame{}, fmt.Errorf("trunk: empty frame")
	}
	d := &decoder{b: b, pos: 1}
	f := Frame{Type: Type(b[0])}
	f.Stream = d.uvarint()
	switch f.Type {
	case Hello:
		f.Version = int(d.uvarint())
		f.GatewayID = d.string()
	case Commit:
		f.RemoteIP = d.string()
		f.ConnectedAt = d.varint()
		f.Exposure = time.Duration(d.varint())
		f.Payload = d.string()
		n := d.uvarint()
		if n > maxStages {
			d.fail("commit carries %d stages (max %d)", n, maxStages)
		}
		for i := uint64(0); i < n && d.err == nil; i++ {
			name := d.string()
			off := time.Duration(d.varint())
			if d.err == nil {
				f.Stages = append(f.Stages, Stage{Name: name, Offset: off})
			}
		}
	case Ack:
		// Stream only.
	case Reject:
		f.Reason = d.string()
	default:
		return Frame{}, fmt.Errorf("trunk: unknown frame type %d", b[0])
	}
	if d.err != nil {
		return Frame{}, d.err
	}
	if d.pos != len(b) {
		return Frame{}, fmt.Errorf("trunk: %d trailing bytes after %s frame", len(b)-d.pos, f.Type)
	}
	return f, nil
}

// DecodeBatch parses a batch message into its frames. Any framing error
// fails the whole batch: trunks are trusted infrastructure links, so a
// malformed batch means a broken peer, not a hostile client to tolerate.
func DecodeBatch(b []byte) ([]Frame, error) {
	var frames []Frame
	pos := 0
	for pos < len(b) {
		n, w := binary.Uvarint(b[pos:])
		if w <= 0 {
			return nil, fmt.Errorf("trunk: truncated batch length at offset %d", pos)
		}
		pos += w
		if n > uint64(len(b)-pos) {
			return nil, fmt.Errorf("trunk: frame length %d exceeds remaining %d bytes", n, len(b)-pos)
		}
		f, err := decodeBody(b[pos : pos+int(n)])
		if err != nil {
			return nil, err
		}
		frames = append(frames, f)
		pos += int(n)
	}
	return frames, nil
}
