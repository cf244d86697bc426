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

	"adaudit/internal/bytecodec"
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

// appendBody encodes the frame without its batch length prefix.
func appendBody(dst []byte, f Frame) []byte {
	dst = append(dst, byte(f.Type))
	dst = binary.AppendUvarint(dst, f.Stream)
	switch f.Type {
	case Hello:
		dst = binary.AppendUvarint(dst, uint64(f.Version))
		dst = bytecodec.AppendString(dst, f.GatewayID)
	case Commit:
		dst = bytecodec.AppendString(dst, f.RemoteIP)
		dst = binary.AppendVarint(dst, f.ConnectedAt)
		dst = binary.AppendVarint(dst, int64(f.Exposure))
		dst = bytecodec.AppendString(dst, f.Payload)
		dst = binary.AppendUvarint(dst, uint64(len(f.Stages)))
		for _, st := range f.Stages {
			dst = bytecodec.AppendString(dst, st.Name)
			dst = binary.AppendVarint(dst, int64(st.Offset))
		}
	case Ack:
		// Stream only.
	case Reject:
		dst = bytecodec.AppendString(dst, f.Reason)
	}
	return dst
}

// bodySize returns the exact encoded size of f's body — the mirror of
// appendBody, which lets AppendFrame write the length prefix first and
// encode straight into the batch buffer, grown once, instead of through
// an intermediate allocation.
func bodySize(f Frame) int {
	n := 1 + bytecodec.UvarintLen(f.Stream)
	switch f.Type {
	case Hello:
		n += bytecodec.UvarintLen(uint64(f.Version)) + bytecodec.StringLen(f.GatewayID)
	case Commit:
		n += bytecodec.StringLen(f.RemoteIP) + bytecodec.VarintLen(f.ConnectedAt) +
			bytecodec.VarintLen(int64(f.Exposure)) + bytecodec.StringLen(f.Payload) +
			bytecodec.UvarintLen(uint64(len(f.Stages)))
		for _, st := range f.Stages {
			n += bytecodec.StringLen(st.Name) + bytecodec.VarintLen(int64(st.Offset))
		}
	case Ack:
		// Stream only.
	case Reject:
		n += bytecodec.StringLen(f.Reason)
	}
	return n
}

// AppendFrame appends f to a batch buffer: a uvarint length prefix
// followed by the frame body. The result of successive AppendFrame
// calls is a valid batch for DecodeBatch.
func AppendFrame(dst []byte, f Frame) []byte {
	n := bodySize(f)
	dst = slices.Grow(dst, bytecodec.UvarintLen(uint64(n))+n)
	dst = binary.AppendUvarint(dst, uint64(n))
	return appendBody(dst, f)
}

// maxStages bounds the per-commit stage list so a corrupt length
// cannot drive a huge allocation.
const maxStages = 64

// decodeBody parses one frame body.
func decodeBody(b []byte) (Frame, error) {
	r := bytecodec.NewReader(b)
	f := Frame{Type: Type(r.Byte())}
	f.Stream = r.Uvarint()
	switch f.Type {
	case Hello:
		f.Version = int(r.Uvarint())
		f.GatewayID = r.String(r.Uvarint())
	case Commit:
		f.RemoteIP = r.String(r.Uvarint())
		f.ConnectedAt = r.Varint()
		f.Exposure = time.Duration(r.Varint())
		f.Payload = r.String(r.Uvarint())
		n := r.Uvarint()
		if n > maxStages {
			r.Fail(fmt.Errorf("%d stages (max %d)", n, maxStages))
		}
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			f.Stages = append(f.Stages, Stage{Name: r.String(r.Uvarint()), Offset: time.Duration(r.Varint())})
		}
	case Ack:
		// Stream only.
	case Reject:
		f.Reason = r.String(r.Uvarint())
	default:
		if r.Err() == nil {
			return Frame{}, fmt.Errorf("trunk: unknown frame type %d", f.Type)
		}
	}
	if r.Err() == nil && r.Len() > 0 {
		r.Fail(fmt.Errorf("%d trailing bytes", r.Len()))
	}
	if r.Err() != nil {
		return Frame{}, fmt.Errorf("trunk: %s frame: %w", f.Type, r.Err())
	}
	return f, nil
}

// DecodeBatch parses a batch message into its frames. Any framing error
// fails the whole batch: trunks are trusted infrastructure links, so a
// malformed batch means a broken peer, not a hostile client to tolerate.
func DecodeBatch(b []byte) ([]Frame, error) {
	var frames []Frame
	r := bytecodec.NewReader(b)
	for r.Len() > 0 {
		body := r.Bytes(r.Uvarint())
		if r.Err() != nil {
			return nil, fmt.Errorf("trunk: batch: %w", r.Err())
		}
		f, err := decodeBody(body)
		if err != nil {
			return nil, err
		}
		frames = append(frames, f)
	}
	return frames, nil
}
