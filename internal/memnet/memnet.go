// Package memnet is the in-memory network the tests run whole
// topologies on: Listen binds an address, Dial (a wsproto.Dialer's
// NetDial) pairs a connection with that listener's next Accept, and the
// bytes move between the two ends without a socket, so the real
// handshakes run over it unchanged. ListenFaulty binds an address whose
// accepted connections carry a seeded fault plan — slow links, torn,
// truncated and reset writes, kills mid-session: what flaky mobile
// links, NAT timeouts and browsers closed mid-exposure do to live
// beacon traffic, and the reason the paper's §4.1 measurement-loss
// model exists. Deadlines, slow-link delays and kill timers are measured
// on the network's clock: on a virtual one a read times out only once
// the test advances past its deadline, and Idle tells such a test when
// nothing is in flight.
package memnet

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adaudit/internal/simclock"
	"adaudit/internal/stats"
)

// Network is one namespace of addresses. The zero value is ready: the
// real clock, and writes that wait for their reader.
type Network struct {
	// Clock measures every deadline; nil is the real clock.
	Clock simclock.Clock
	// Buffer is how many bytes each direction of a connection holds
	// unread before a write waits. At 0 a write returns only once the
	// peer has read all of it, like net.Pipe: a peer that stops reading
	// stalls the writer at once, with no socket buffer to fill first.
	Buffer int

	mu        sync.Mutex
	listeners map[string]*Listener
	dials     int          // numbers each dial's source port
	pending   atomic.Int64 // dials not yet accepted
	unread    atomic.Int64 // bytes written and neither read nor dropped
}

// Idle reports whether no dial awaits its accept and no byte its read.
func (n *Network) Idle() bool { return n.pending.Load() == 0 && n.unread.Load() == 0 }

// Quiescent reports whether n is idle and every goroutine but the
// caller's is blocked — on a channel, a lock, a timer — rather than
// running, runnable or in a system call: the moment a virtual clock may
// step without outrunning bytes in flight, a dial not yet accepted, or
// work a woken goroutine has still to do. stacks is the buffer the
// goroutine dump is read into.
func (n *Network) Quiescent(stacks *[]byte) bool {
	return n.Idle() && othersBlocked(stacks) && n.Idle()
}

func othersBlocked(stacks *[]byte) bool {
	k := runtime.Stack(*stacks, true)
	for k == len(*stacks) {
		*stacks = make([]byte, 2*len(*stacks))
		k = runtime.Stack(*stacks, true)
	}
	busy := 0
	for dump := (*stacks)[:k]; len(dump) > 0; {
		var line []byte
		line, dump, _ = bytes.Cut(dump, []byte("\n"))
		if head, ok := bytes.CutPrefix(line, []byte("goroutine ")); ok {
			_, state, _ := bytes.Cut(head, []byte("["))
			state, _, _ = bytes.Cut(state, []byte("]"))
			state, _, _ = bytes.Cut(state, []byte(","))
			switch string(state) {
			case "running", "runnable", "syscall":
				busy++
			}
		}
	}
	return busy == 1
}

// addr is an address known by its text alone.
func addr(s string) net.Addr { return &net.UnixAddr{Name: s, Net: "memnet"} }

// Listen binds address, which a dial must name exactly.
func (n *Network) Listen(address string) (*Listener, error) { return n.ListenFaulty(address, nil) }

// ListenFaulty is Listen with f's faults on every connection the
// listener accepts (nil: none). Listeners may share f, as a restarted
// server does: its connections go on numbering from the last.
func (n *Network) ListenFaulty(address string, f *Faults) (*Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.listeners[address] != nil {
		return nil, &net.OpError{Op: "listen", Net: "memnet", Addr: addr(address), Err: errors.New("address already in use")}
	}
	if n.listeners == nil {
		n.listeners = map[string]*Listener{}
	}
	l := &Listener{n: n, addr: addr(address), faults: f, accept: make(chan *Conn), closed: make(chan struct{})}
	n.listeners[address] = l
	return l, nil
}

// Faults is a seeded fault plan for the connections a listener accepts.
// The zero value injects nothing. Each connection draws from its own
// stream, forked from Seed by its accept number, in a fixed order — at
// its accept whether it is a slow link and when it is killed, then at
// each write a reset, a tear, a truncation and where to cut — so a seed
// replays the same faults on the same traffic.
type Faults struct {
	Seed int64

	// SlowLinkProb is the probability a connection is a slow link for
	// its whole life: its reads and writes wait out their bytes at a
	// rate drawn from [SlowLinkBytesPerSecond/2, SlowLinkBytesPerSecond]
	// — the long tail of throttled mobile paths that exercises
	// backpressure upstream while most connections run clean.
	SlowLinkProb           float64
	SlowLinkBytesPerSecond int

	// Per write: ResetWriteProb resets the connection before any byte
	// moves; PartialWriteProb writes a prefix and then resets it, the
	// torn write of a connection dying mid-frame; TruncateProb writes a
	// prefix and reports the whole written, bytes lost in transit that
	// the sender never learns about.
	ResetWriteProb   float64
	PartialWriteProb float64
	TruncateProb     float64

	// KillAfter, plus up to KillJitter, after its accept a connection
	// is reset whatever its ends are doing. 0 never.
	KillAfter  time.Duration
	KillJitter time.Duration

	accepts atomic.Uint64

	// What the plan has done so far, for a test to check that it bit.
	Resets, Kills, SlowLinks, PartialWrites, Truncations atomic.Uint64
}

// ErrReset is the error of a write toward a closed end, and of every
// operation on a connection a fault reset or killed. It is a net.Error
// that is no timeout, as a real peer reset is.
var ErrReset net.Error = resetError{}

type resetError struct{}

func (resetError) Error() string   { return "memnet: connection reset" }
func (resetError) Timeout() bool   { return false }
func (resetError) Temporary() bool { return false }

// Dial returns a connection to the listener bound at address once it
// accepts; a dial to an address nothing is bound at is refused at once.
// The listener sees each dial from a port of its own at 192.0.2.1.
func (n *Network) Dial(ctx context.Context, _, address string) (net.Conn, error) {
	n.mu.Lock()
	l := n.listeners[address]
	n.dials++
	from := &net.TCPAddr{IP: net.IPv4(192, 0, 2, 1), Port: 1 + n.dials%65535}
	n.mu.Unlock()
	refused := &net.OpError{Op: "dial", Net: "memnet", Addr: addr(address), Err: errors.New("connection refused")}
	if l == nil {
		return nil, refused
	}
	up, down := n.stream(), n.stream()
	n.pending.Add(1)
	defer n.pending.Add(-1)
	select {
	case l.accept <- &Conn{in: up, out: down, local: l.addr, remote: from}:
		return &Conn{in: down, out: up, local: from, remote: l.addr}, nil
	case <-l.closed:
		return nil, refused
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Listener accepts the dials to its address.
type Listener struct {
	n      *Network
	addr   net.Addr
	faults *Faults
	accept chan *Conn
	closed chan struct{}
}

func (l *Listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		if l.faults != nil {
			c.fault(l.faults)
		}
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

// Close refuses the dials still waiting and unbinds the address, which
// can then be listened on again.
func (l *Listener) Close() error {
	l.n.mu.Lock()
	defer l.n.mu.Unlock()
	if l.n.listeners[l.addr.String()] == l {
		delete(l.n.listeners, l.addr.String())
		close(l.closed)
	}
	return nil
}

func (l *Listener) Addr() net.Addr { return l.addr }

// stream is one direction of a connection: the bytes its writer left
// unread, and whether either end has closed.
type stream struct {
	n                *Network
	mu               sync.Mutex
	wake             chan struct{} // closed, and replaced, on every change
	buf              []byte
	taken            int // bytes ever read
	rclosed, wclosed bool
}

func (n *Network) stream() *stream { return &stream{n: n, wake: make(chan struct{})} }

// update runs f under s.mu, then wakes every waiter.
func (s *stream) update(f func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f()
	close(s.wake)
	s.wake = make(chan struct{})
}

// drop discards the unread bytes; s.mu is held.
func (s *stream) drop() {
	s.n.unread.Add(int64(-len(s.buf)))
	s.buf = nil
}

// wait releases s.mu until ready holds, or fails with
// os.ErrDeadlineExceeded once *dl has passed; s.mu is held on entry and
// on return.
func (s *stream) wait(dl *time.Time, ready func() bool) error {
	for !ready() {
		expired, stop := (<-chan time.Time)(nil), func() bool { return false }
		if !dl.IsZero() {
			clk := simclock.Or(s.n.Clock)
			left := dl.Sub(clk.Now())
			if left <= 0 {
				return os.ErrDeadlineExceeded
			}
			t := clk.NewTimer(left)
			expired, stop = t.C(), t.Stop
		}
		wake := s.wake
		s.mu.Unlock()
		select {
		case <-wake:
		case <-expired:
		}
		stop()
		s.mu.Lock()
	}
	return nil
}

// Conn is one end of a connection.
type Conn struct {
	in, out       *stream
	rdl, wdl      time.Time  // guarded by in.mu and out.mu
	wmu           sync.Mutex // one write at a time: unbuffered, a write waits out its own bytes
	local, remote net.Addr

	// An end a faulty listener accepted draws its faults from rng;
	// faults is nil on every other end.
	faults   *Faults
	rngMu    sync.Mutex // the draws of concurrent writes
	rng      *stats.RNG
	byteRate int           // a slow link's bytes per second; 0, not one
	broken   atomic.Bool   // reset or killed: every operation fails with ErrReset
	closed   chan struct{} // closed at Close, ending a kill's wait
}

// Read returns buffered bytes; once the peer has closed and they are
// read, io.EOF. On a slow link it returns once they have crossed it.
func (c *Conn) Read(b []byte) (int, error) {
	if c.broken.Load() {
		return 0, ErrReset
	}
	k, err := c.read(b)
	c.slow(k)
	if err != nil && c.broken.Load() {
		return k, ErrReset
	}
	return k, err
}

// Write returns once b is buffered (unbuffered: read), and on a slow
// link once it has crossed it. Once the peer has closed it fails with
// ErrReset. On a faulty end it may instead reset, tear or truncate, as
// drawn.
func (c *Conn) Write(b []byte) (int, error) {
	if c.broken.Load() {
		return 0, ErrReset
	}
	var reset, tear, truncate bool
	cut := len(b)
	if f := c.faults; f != nil {
		c.rngMu.Lock()
		reset = c.rng.Bool(f.ResetWriteProb)
		tear = !reset && c.rng.Bool(f.PartialWriteProb)
		truncate = !reset && !tear && c.rng.Bool(f.TruncateProb)
		if (tear || truncate) && len(b) > 1 {
			cut = 1 + c.rng.Intn(len(b)-1)
		}
		c.rngMu.Unlock()
	}
	if cut == len(b) { // none drawn, or the write is too short to cut
		tear, truncate = false, false
	}
	switch {
	case reset:
		c.faults.Resets.Add(1)
		c.breakOff()
		return 0, ErrReset
	case tear:
		c.faults.PartialWrites.Add(1)
	case truncate:
		c.faults.Truncations.Add(1)
	}
	k, err := c.write(b[:cut])
	c.slow(k)
	switch {
	case tear:
		c.breakOff()
		return k, ErrReset
	case err != nil && c.broken.Load():
		return k, ErrReset
	case truncate && err == nil:
		return len(b), nil // the tail evaporated in transit
	}
	return k, err
}

// breakOff resets c: it closes, and every later operation fails with
// ErrReset.
func (c *Conn) breakOff() {
	c.broken.Store(true)
	_ = c.Close()
}

// slow waits out k bytes on a slow link.
func (c *Conn) slow(k int) {
	if c.byteRate > 0 && k > 0 {
		<-simclock.Or(c.in.n.Clock).NewTimer(time.Duration(float64(k) / float64(c.byteRate) * float64(time.Second))).C()
	}
}

// fault puts f's faults on c, the listener's next accept, drawing its
// slow link and then its kill.
func (c *Conn) fault(f *Faults) {
	c.faults = f
	c.rng = stats.NewRNG(f.Seed).Fork(fmt.Sprintf("conn-%d", f.accepts.Add(1)))
	if f.SlowLinkProb > 0 && f.SlowLinkBytesPerSecond > 0 && c.rng.Bool(f.SlowLinkProb) {
		ceil := f.SlowLinkBytesPerSecond
		c.byteRate = ceil - c.rng.Intn(ceil/2+1)
		f.SlowLinks.Add(1)
	}
	if f.KillAfter <= 0 {
		return
	}
	d := f.KillAfter
	if f.KillJitter > 0 {
		d += time.Duration(c.rng.Int63n(int64(f.KillJitter) + 1))
	}
	c.closed = make(chan struct{})
	kill := simclock.Or(c.in.n.Clock).NewTimer(d)
	go func() {
		defer kill.Stop()
		select {
		case <-kill.C():
			if c.broken.CompareAndSwap(false, true) {
				f.Kills.Add(1)
				_ = c.Close()
			}
		case <-c.closed:
		}
	}()
}

func (c *Conn) read(b []byte) (k int, err error) {
	s := c.in
	s.update(func() {
		err = s.wait(&c.rdl, func() bool { return len(b) == 0 || len(s.buf) > 0 || s.rclosed || s.wclosed })
		switch {
		case s.rclosed:
			err = net.ErrClosed
		case err == nil && len(b) > 0 && len(s.buf) == 0:
			err = io.EOF
		case err == nil:
			k = copy(b, s.buf)
			s.buf, s.taken = s.buf[k:], s.taken+k
			s.n.unread.Add(int64(-k))
		}
	})
	return k, err
}

func (c *Conn) write(b []byte) (n int, err error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	s, room := c.out, c.out.n.Buffer
	s.mu.Lock()
	defer s.mu.Unlock()
	base, queued, capacity := s.taken, 0, cmp.Or(room, len(b))
	for {
		if n = queued; room == 0 { // only what the reader took is written
			n = s.taken - base
		}
		switch {
		case n == len(b):
			return n, nil
		case s.wclosed:
			return n, net.ErrClosed
		case s.rclosed:
			return n, ErrReset
		}
		if k := min(capacity-len(s.buf), len(b)-queued); k > 0 {
			s.buf = append(s.buf, b[queued:queued+k]...)
			queued += k
			s.n.unread.Add(int64(k))
			close(s.wake)
			s.wake = make(chan struct{})
			continue
		}
		held := len(s.buf)
		if err := s.wait(&c.wdl, func() bool { return len(s.buf) < held || s.rclosed || s.wclosed }); err != nil {
			if room == 0 {
				s.drop()
				n = s.taken - base
			}
			return n, err
		}
	}
}

// Close ends both directions: the peer reads what is buffered toward it
// and then io.EOF, and its writes fail; what is buffered toward this end
// is dropped.
func (c *Conn) Close() (err error) {
	c.in.update(func() {
		if c.in.rclosed {
			err = net.ErrClosed
		} else if c.closed != nil {
			close(c.closed)
		}
		c.in.rclosed = true
		c.in.drop()
	})
	c.out.update(func() { c.out.wclosed = true })
	return err
}

func (c *Conn) LocalAddr() net.Addr  { return c.local }
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

func (c *Conn) SetDeadline(t time.Time) error { _ = c.SetReadDeadline(t); return c.SetWriteDeadline(t) }

func (c *Conn) SetReadDeadline(t time.Time) error  { c.in.update(func() { c.rdl = t }); return nil }
func (c *Conn) SetWriteDeadline(t time.Time) error { c.out.update(func() { c.wdl = t }); return nil }
