package trunk

import (
	"crypto/subtle"
	"fmt"
	"net/http"
	"sync"
	"time"

	"adaudit/internal/simclock"
	"adaudit/internal/wsproto"
)

// Receiver is the receiving end of a trunk, the one loop a collector's
// and a router's /trunk endpoint both run. It owns what the protocol
// fixes — binary messages only, a first batch that opens with a Hello,
// every Hello of this build's Version, the handshake deadline, one reply
// batch per batch read — and refuses a peer that breaks it with a 1008
// close before handing on any frame. A Receiver is configuration only:
// one value serves every trunk.
type Receiver struct {
	Clock simclock.Clock // nil is the real clock
	// HandshakeTimeout bounds the wait for the Hello; after it the trunk
	// may idle, kept alive by the edge's pings.
	HandshakeTimeout time.Duration
	// WriteTimeout bounds each Peer.Send; zero leaves writes unbounded.
	WriteTimeout time.Duration
	// Refused, if set, hears a refusal — its close reason, and a
	// malformed batch's decode error — before the close is written.
	Refused func(p *Peer, reason string, err error)
}

// Authorized reports whether r presents token in its TokenHeader,
// compared in constant time. An empty token admits every request.
func Authorized(r *http.Request, token string) bool {
	return token == "" || subtle.ConstantTimeCompare([]byte(r.Header.Get(TokenHeader)), []byte(token)) == 1
}

// Peer is the far end of one trunk connection: the edge a Receiver
// serves, or the upstream an edge dialed (NewPeer). Send is the one
// bounded writer to it.
type Peer struct {
	ID string // a served edge's, from its Hello; empty until then

	batch   uint64 // ordinal of the batch Serve is handing on
	conn    *wsproto.Conn
	clock   simclock.Clock
	timeout time.Duration
	mu      sync.Mutex // keeps each write's deadline its own
}

// NewPeer wraps conn for Send, each write bounded by timeout on clock
// (zero: unbounded; a nil clock is the real one).
func NewPeer(conn *wsproto.Conn, clock simclock.Clock, timeout time.Duration) *Peer {
	return &Peer{conn: conn, clock: simclock.Or(clock), timeout: timeout}
}

// Batch is the ordinal of the batch whose frame Serve is handing on:
// frames of one batch share it. Only Serve's handle may call it.
func (p *Peer) Batch() uint64 { return p.batch }

// Send writes one batch to the peer within its write timeout (a
// Receiver's WriteTimeout), from any goroutine. A failed write closes
// the trunk: the edge replays what it has not seen answered, and the
// store behind the tier drops the replay.
func (p *Peer) Send(batch []byte) error {
	p.mu.Lock()
	if p.timeout > 0 {
		_ = p.conn.SetWriteDeadline(p.clock.Now().Add(p.timeout))
	}
	err := p.conn.WriteMessage(wsproto.OpBinary, batch)
	if p.timeout > 0 {
		_ = p.conn.SetWriteDeadline(time.Time{})
	}
	p.mu.Unlock()
	if err != nil {
		_ = p.conn.NetConn().Close()
	}
	return err
}

// Serve runs the trunk on conn until it is refused or dead, handing
// every frame of every accepted batch — Hellos included — to handle,
// which appends its reply frames to reply, and sending the replies. It
// returns the peer and, unless the trunk was refused, the read or write
// error that ended it, having closed conn.
func (r *Receiver) Serve(conn *wsproto.Conn, handle func(p *Peer, f Frame, reply []byte) []byte) (*Peer, error) {
	defer conn.Close(wsproto.CloseNormal, "")
	p := NewPeer(conn, r.Clock, r.WriteTimeout)
	refuse := func(reason string, err error) (*Peer, error) {
		if r.Refused != nil {
			r.Refused(p, reason, err)
		}
		_ = conn.Close(wsproto.ClosePolicyViolation, reason)
		return p, nil
	}
	conn.ReuseReadBuffer() // DecodeBatch copies what it keeps
	_ = conn.SetReadDeadline(p.clock.Now().Add(r.HandshakeTimeout))
	var reply []byte // Send has written it when it returns
	for {
		op, msg, err := conn.ReadMessage()
		if err != nil {
			return p, err
		}
		if op != wsproto.OpBinary {
			return refuse("trunk frames must be binary", nil)
		}
		frames, err := DecodeBatch(msg)
		if err != nil {
			return refuse("malformed trunk batch", err)
		}
		if p.ID == "" && (len(frames) == 0 || frames[0].Type != Hello) {
			return refuse("trunk batch before hello", nil)
		}
		reply = reply[:0]
		p.batch++
		for _, f := range frames {
			if f.Type == Hello && f.Version != Version {
				return refuse(fmt.Sprintf("trunk protocol version %d, this build speaks %d", f.Version, Version), nil)
			}
			if f.Type == Hello && p.ID == "" {
				p.ID = f.GatewayID
				_ = conn.SetReadDeadline(time.Time{})
			}
			reply = handle(p, f, reply)
		}
		if len(reply) > 0 {
			if err := p.Send(reply); err != nil {
				return p, err
			}
		}
	}
}
