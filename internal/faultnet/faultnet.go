// Package faultnet is a deterministic fault-injection layer for network
// connections: a net.Conn / net.Listener wrapper that adds latency,
// throttles bandwidth, tears writes, truncates bytes, injects resets
// and kills connections mid-session — the conditions live ad-beacon
// traffic produces (flaky mobile links, NAT timeouts, browsers killed
// mid-exposure) and the reason the paper's §4.1 measurement-loss model
// exists at all.
//
// Every stochastic decision draws from a stats.RNG seeded from the
// Plan's seed and a per-connection sequence number, so a chaos run
// replays bit-for-bit: the same seed produces the same kills, the same
// resets, the same torn writes. Hot paths pay nothing when a fault
// class is disabled (probability zero, duration zero).
//
// It plugs in without touching production code: Listen wraps the
// listener a server is handed through daemon.WithListener, so faults
// land on the connections it accepts — TCP sockets, or internal/memnet
// connections whose deadlines share the Plan's Clock.
package faultnet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"adaudit/internal/simclock"
	"adaudit/internal/stats"
)

// ErrInjectedReset is the error surfaced by reads and writes on a
// connection the plan reset or killed. It reports Timeout() == false so
// callers classify it like a real peer reset, not a deadline.
var ErrInjectedReset = errors.New("faultnet: connection reset by fault plan")

// Plan describes which faults to inject and how hard. The zero value
// injects nothing and wraps at (almost) zero cost. Probabilities are
// per operation (one Read or Write call); durations and byte counts are
// drawn uniformly between the base value and base+jitter.
type Plan struct {
	// Seed drives every random decision. Two runs with equal seeds and
	// equal traffic see identical faults.
	Seed int64

	// Clock runs the kill timers and the delays; nil is the real clock.
	Clock simclock.Clock

	// Latency is added to every Read and Write; LatencyJitter adds a
	// uniform random extra on top.
	Latency       time.Duration
	LatencyJitter time.Duration

	// BytesPerSecond throttles throughput per direction per connection
	// (0 = unlimited). Implemented as a sleep proportional to the bytes
	// moved, so large frames take realistically long on the wire.
	BytesPerSecond int

	// SlowLinkProb is the probability a wrapped connection is a slow
	// link for its whole lifetime: its byte rate is capped at a seeded
	// per-connection draw from [SlowLinkBytesPerSecond/2,
	// SlowLinkBytesPerSecond]. Unlike BytesPerSecond (a uniform cap on
	// every connection), a slow link models the long tail of throttled
	// mobile paths: most connections run clean while an unlucky few
	// crawl, which is what actually exercises per-session backpressure
	// upstream. When both caps apply the tighter one wins.
	SlowLinkProb           float64
	SlowLinkBytesPerSecond int

	// PartialWriteProb is the probability a Write delivers only a
	// prefix of its buffer and then fails with ErrInjectedReset — the
	// torn write a connection dying mid-frame produces.
	PartialWriteProb float64

	// TruncateProb is the probability a Write silently drops its tail
	// bytes while reporting full success — bytes lost in transit that
	// the sender never learns about. The peer sees a truncated stream.
	TruncateProb float64

	// ResetReadProb / ResetWriteProb are the per-operation probabilities
	// of an immediate connection reset before any bytes move.
	ResetReadProb  float64
	ResetWriteProb float64

	// KillAfter schedules a hard mid-session kill: the transport is
	// closed KillAfter (+ uniform KillJitter) after the connection is
	// wrapped, on Clock, whatever the endpoints are doing. Zero disables.
	KillAfter  time.Duration
	KillJitter time.Duration

	// conns numbers wrapped connections so each gets an independent,
	// reproducible RNG stream.
	conns atomic.Uint64

	// Fault counters, for tests asserting a chaos run actually bit.
	Resets        atomic.Uint64
	Kills         atomic.Uint64
	PartialWrites atomic.Uint64
	Truncations   atomic.Uint64

	// SlowLinks counts connections that drew a slow-link byte-rate cap.
	// Kept out of Stats() so its four-value signature stays stable.
	SlowLinks atomic.Uint64
}

// Stats summarises the faults a plan has injected so far.
func (p *Plan) Stats() (resets, kills, partialWrites, truncations uint64) {
	return p.Resets.Load(), p.Kills.Load(), p.PartialWrites.Load(), p.Truncations.Load()
}

// Wrap returns nc with the plan's faults injected. Each call derives an
// independent deterministic RNG stream from the plan seed and the
// wrap sequence number.
func (p *Plan) Wrap(nc net.Conn) net.Conn {
	n := p.conns.Add(1)
	c := &Conn{
		Conn:   nc,
		plan:   p,
		rng:    stats.NewRNG(p.Seed).Fork(fmt.Sprintf("conn-%d", n)),
		closed: make(chan struct{}),
	}
	if p.SlowLinkProb > 0 && p.SlowLinkBytesPerSecond > 0 {
		c.draw(func(r *stats.RNG) {
			if r.Bool(p.SlowLinkProb) {
				// Draw the cap inside [ceil/2, ceil] so two same-seed
				// plans give each connection the same rate.
				ceil := p.SlowLinkBytesPerSecond
				c.byteRate = ceil - r.Intn(ceil/2+1)
				p.SlowLinks.Add(1)
			}
		})
	}
	if p.KillAfter > 0 {
		d := p.KillAfter
		if p.KillJitter > 0 {
			c.mu.Lock()
			d += time.Duration(c.rng.Int63n(int64(p.KillJitter) + 1))
			c.mu.Unlock()
		}
		kill := simclock.Or(p.Clock).NewTimer(d)
		go func() {
			defer kill.Stop()
			select {
			case <-kill.C():
				if c.killed.CompareAndSwap(false, true) {
					p.Kills.Add(1)
					_ = nc.Close()
				}
			case <-c.closed:
			}
		}()
	}
	return c
}

// Listen wraps ln so every accepted connection carries the plan's
// faults.
func (p *Plan) Listen(ln net.Listener) net.Listener {
	return &listener{Listener: ln, plan: p}
}

type listener struct {
	net.Listener
	plan *Plan
}

func (l *listener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.plan.Wrap(nc), nil
}

// resetError wraps ErrInjectedReset as a net.Error so error-classifying
// code (e.g. the collector's close-reason mapping) treats it like a
// genuine peer reset rather than a timeout.
type resetError struct{}

func (resetError) Error() string   { return ErrInjectedReset.Error() }
func (resetError) Unwrap() error   { return ErrInjectedReset }
func (resetError) Timeout() bool   { return false }
func (resetError) Temporary() bool { return false }

var _ net.Error = resetError{}

// Conn is a net.Conn with a fault plan attached. Reads and writes may
// be delayed, torn, truncated or reset according to the plan.
type Conn struct {
	net.Conn
	plan *Plan

	// mu guards rng: the read and write sides run on different
	// goroutines but stats.RNG is single-stream.
	mu  sync.Mutex
	rng *stats.RNG

	killed atomic.Bool
	// closed ends a scheduled kill's wait at Close.
	closed    chan struct{}
	closeOnce sync.Once

	// byteRate is this connection's slow-link cap in bytes/second, drawn
	// once at Wrap time; 0 means the connection did not draw a slow link.
	byteRate int
}

// draw runs fn under the RNG lock; kept tiny so the lock never spans a
// sleep or an I/O call.
func (c *Conn) draw(fn func(r *stats.RNG)) {
	c.mu.Lock()
	fn(c.rng)
	c.mu.Unlock()
}

// delay sleeps for the plan's latency plus the bandwidth cost of moving
// n bytes.
func (c *Conn) delay(n int) {
	p := c.plan
	d := p.Latency
	if p.LatencyJitter > 0 {
		c.draw(func(r *stats.RNG) { d += time.Duration(r.Int63n(int64(p.LatencyJitter) + 1)) })
	}
	rate := p.BytesPerSecond
	if c.byteRate > 0 && (rate == 0 || c.byteRate < rate) {
		rate = c.byteRate
	}
	if rate > 0 && n > 0 {
		d += time.Duration(float64(n) / float64(rate) * float64(time.Second))
	}
	if d > 0 {
		<-simclock.Or(p.Clock).NewTimer(d).C()
	}
}

func (c *Conn) reset() error {
	c.plan.Resets.Add(1)
	c.killed.Store(true)
	_ = c.Conn.Close()
	return resetError{}
}

// Read applies latency and throttling to the bytes read and may inject
// a reset before any bytes move.
func (c *Conn) Read(b []byte) (int, error) {
	if c.killed.Load() {
		return 0, resetError{}
	}
	if p := c.plan.ResetReadProb; p > 0 {
		var hit bool
		c.draw(func(r *stats.RNG) { hit = r.Bool(p) })
		if hit {
			return 0, c.reset()
		}
	}
	n, err := c.Conn.Read(b)
	c.delay(n)
	if err != nil && c.killed.Load() {
		// The kill timer closed the transport under us; report the
		// injected reset rather than "use of closed connection".
		return n, resetError{}
	}
	return n, err
}

// Write applies latency and throttling and may tear, truncate or reset
// the write.
func (c *Conn) Write(b []byte) (int, error) {
	if c.killed.Load() {
		return 0, resetError{}
	}
	p := c.plan
	var resetHit, partialHit, truncHit bool
	var cut int
	if p.ResetWriteProb > 0 || p.PartialWriteProb > 0 || p.TruncateProb > 0 {
		c.draw(func(r *stats.RNG) {
			resetHit = r.Bool(p.ResetWriteProb)
			partialHit = !resetHit && r.Bool(p.PartialWriteProb)
			truncHit = !resetHit && !partialHit && r.Bool(p.TruncateProb)
			if (partialHit || truncHit) && len(b) > 1 {
				cut = 1 + r.Intn(len(b)-1)
			}
		})
	}
	switch {
	case resetHit:
		return 0, c.reset()
	case partialHit && len(b) > 1:
		p.PartialWrites.Add(1)
		n, _ := c.Conn.Write(b[:cut])
		c.delay(n)
		c.killed.Store(true)
		_ = c.Conn.Close()
		return n, resetError{}
	case truncHit && len(b) > 1:
		p.Truncations.Add(1)
		n, err := c.Conn.Write(b[:cut])
		c.delay(n)
		if err != nil {
			return n, err
		}
		// Lie: the tail evaporated in transit but the sender sees a
		// full write, exactly like a buffer lost to a dying link.
		return len(b), nil
	}
	n, err := c.Conn.Write(b)
	c.delay(n)
	if err != nil && c.killed.Load() {
		return n, resetError{}
	}
	return n, err
}

// Close tears the connection down and cancels any scheduled kill.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}
