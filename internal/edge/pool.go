package edge

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/trunk"
	"adaudit/internal/wsproto"
)

// trunkDialTimeout bounds one trunk connection attempt.
const trunkDialTimeout = 5 * time.Second

// batchBytes is where the replay loop cuts a batch message: commits are
// appended until the batch reaches it, so a long spill drains in
// messages far below trunk.MaxMessage.
const batchBytes = 32 << 10

// Pool is one upstream's side of the edge: a small pool of persistent
// trunk connections to that collector, plus the spill buffer holding
// every commit placed on it until the collector durably acks. Pools
// are independent — one upstream's outage spills only its own slice of
// the keyspace while the others keep flowing — and spill entries never
// migrate between pools, because ownership is the hash of the session
// key, not trunk availability.
//
// Forward is the relay surface, with Edge.PoolFor, Edge.NextStream and
// Config.OnResolve: a relayed commit never enters the spill.
type Pool struct {
	e   *Edge
	url string
	tel PoolInstruments
	log *slog.Logger

	trunks []*trunkConn
	// gen counts trunk topology changes (any trunk of this pool coming
	// up or going down). A spill entry sent under an older generation may
	// have died with its trunk, so the replay loop re-sends it.
	gen atomic.Uint64
	// rr round-robins the replay loop across the pool's healthy trunks.
	rr atomic.Uint64

	// spill holds every commit not yet acked by the upstream, keyed by
	// stream. Entries survive trunk failures and collector restarts; the
	// replay loop is the only sender, so a commit cannot race its own
	// retransmission.
	spillMu    sync.Mutex
	spill      map[uint64]*spillEntry
	replayWake chan struct{}
	// batch is the replay loop's message buffer, reused across writes.
	batch []byte
}

// spillEntry is one unacknowledged commit.
type spillEntry struct {
	frame []byte // encoded Commit frame, length-prefixed
	// sentGen is the pool generation at the last send (0 = never sent);
	// sentAt the send time. Only the replay loop touches either.
	sentGen  uint64
	sentAt   time.Time
	enqueued time.Time // first spill time, for the forward histogram
}

func newPool(e *Edge, up Upstream) *Pool {
	p := &Pool{
		e:          e,
		url:        up.URL,
		tel:        up.Tel,
		log:        e.log.With("upstream", up.URL),
		spill:      map[uint64]*spillEntry{},
		replayWake: make(chan struct{}, 1),
	}
	for i := 0; i < e.cfg.TrunksPerPool; i++ {
		p.trunks = append(p.trunks, &trunkConn{p: p, idx: i})
	}
	return p
}

func (p *Pool) spillPending() int {
	p.spillMu.Lock()
	defer p.spillMu.Unlock()
	return len(p.spill)
}

func (p *Pool) wakeReplay() {
	select {
	case p.replayWake <- struct{}{}:
	default:
	}
}

// spillCommit registers a session's encoded Commit frame for guaranteed
// delivery to this upstream and nudges the replay loop to send it now.
func (p *Pool) spillCommit(stream uint64, frame []byte) {
	p.e.cfg.Tel.Commits.Add(1)
	p.tel.Commits.Add(1)
	p.spillMu.Lock()
	p.spill[stream] = &spillEntry{frame: frame, enqueued: p.e.cfg.Clock.Now()}
	p.spillMu.Unlock()
	p.wakeReplay()
}

// Forward writes one encoded Commit frame once onto a healthy trunk of
// this pool, holding nothing, and reports whether it went out. The
// write is bounded by AckTimeout like the replay loop's; a commit not
// written, or never answered, is the caller's to replay.
func (p *Pool) Forward(frame []byte) bool {
	peer := p.pickTrunk()
	if peer == nil {
		return false
	}
	p.e.cfg.Tel.Commits.Add(1)
	p.tel.Commits.Add(1)
	p.tel.TrunkBatches.Add(1)
	p.tel.BatchBytes.Observe(float64(len(frame)))
	return peer.Send(frame) == nil
}

// resolve counts an upstream's verdict on a stream — acked or
// permanently rejected — and drops it from the spill buffer; a stream
// no spill holds is the OnResolve hook's.
func (p *Pool) resolve(stream uint64, acked bool, reason string) {
	p.spillMu.Lock()
	e, held := p.spill[stream]
	delete(p.spill, stream)
	p.spillMu.Unlock()
	var since time.Time
	if held {
		since = e.enqueued
	} else if hook := p.e.cfg.OnResolve; hook != nil {
		since = hook(stream, acked, reason)
	}
	switch {
	case since.IsZero(): // answered already, or unknown
	case acked:
		p.tel.Acks.Add(1)
		p.tel.Forward.ObserveDuration(p.e.cfg.Clock.Since(since))
	default:
		p.tel.Rejects.Add(1)
		p.log.Warn("edge: upstream rejected commit", "stream", stream, "reason", reason)
	}
}

// pickTrunk returns a healthy trunk of this pool, round-robin, or nil.
func (p *Pool) pickTrunk() *trunk.Peer {
	n := len(p.trunks)
	start := int(p.rr.Add(1)) % n
	for i := 0; i < n; i++ {
		if peer := p.trunks[(start+i)%n].peer.Load(); peer != nil {
			return peer
		}
	}
	return nil
}

// healthyTrunks counts established trunk connections to this upstream.
func (p *Pool) healthyTrunks() int {
	n := 0
	for _, t := range p.trunks {
		if t.peer.Load() != nil {
			n++
		}
	}
	return n
}

// replayLoop is the pool's single sender of spilled commits: it pushes
// fresh spill entries immediately (woken by spillCommit and trunk
// attach) and re-sends entries whose trunk died or whose ack timed out.
// One sender per pool means a commit can never race its own
// retransmission onto two trunks; the collector's store drops the
// replays a lost ack still forces, each a leg it has counted already.
func (p *Pool) replayLoop() {
	defer p.e.runnersWG.Done()
	tick := p.e.cfg.Clock.NewTicker(p.e.cfg.ReplayInterval)
	defer tick.Stop()
	for {
		select {
		case <-p.e.stopCh:
			return
		case <-p.replayWake:
		case <-tick.C():
		}
		p.replayPending()
	}
}

// replayPending sends every due spill entry over a healthy trunk of
// this pool, as batch messages cut at batchBytes: never sent, sent under
// an older pool generation (its trunk may have died with the ack in
// flight), or unacked past AckTimeout.
func (p *Pool) replayPending() {
	// The generation is read before the trunk is picked: a trunk lost
	// from here on bumps it past what the entries are marked with, so
	// they stay due.
	gen := p.gen.Load()
	peer := p.pickTrunk()
	if peer == nil {
		return
	}
	now := p.e.cfg.Clock.Now()
	var due []*spillEntry
	p.spillMu.Lock()
	for _, e := range p.spill {
		if e.sentGen != gen || now.Sub(e.sentAt) > p.e.cfg.AckTimeout {
			due = append(due, e)
		}
	}
	p.spillMu.Unlock()

	for i, e := range due {
		p.batch = append(p.batch, e.frame...)
		if e.sentGen != 0 {
			p.tel.Replays.Add(1)
		}
		e.sentGen, e.sentAt = gen, now
		if len(p.batch) < batchBytes && i+1 < len(due) {
			continue
		}
		p.tel.TrunkBatches.Add(1)
		p.tel.BatchBytes.Observe(float64(len(p.batch)))
		err := peer.Send(p.batch)
		p.batch = p.batch[:0]
		if err != nil {
			// Send closed the transport, so the trunk's reader notices and
			// the slot recycles; its detach bumps the generation, which
			// makes what was marked sent on it due again.
			return
		}
	}
}

// trunkConn is one slot in a pool: a WebSocket to the upstream
// collector's /trunk endpoint carrying batched commits for every session
// placed on that upstream. Each slot runs its own dial/read lifecycle
// with a circuit breaker, so a dead collector costs bounded probing,
// not a dial storm.
type trunkConn struct {
	p   *Pool
	idx int

	// peer writes to the live connection, each write bounded by
	// AckTimeout (nil while down: the slot is healthy exactly when it has
	// one).
	peer atomic.Pointer[trunk.Peer]
	// fails counts, for the breaker, consecutive trunks that were never
	// answered: a dial that failed, or a connection that ended before
	// its first ack or reject. A dial alone proves nothing — an upstream
	// that refuses the Hello (another protocol version, a draining
	// collector) accepts the connection first.
	fails int
}

// run is the trunk slot's lifecycle loop: breaker-gated dial, hello,
// then reading acks until the connection dies.
func (t *trunkConn) run() {
	e := t.p.e
	defer e.runnersWG.Done()
	for {
		select {
		case <-e.stopCh:
			return
		default:
		}
		if t.fails > 0 {
			// Below the breaker threshold, space retries briefly so a
			// transient blip does not burn the whole failure budget at
			// once. At it, the breaker is open: wait out the cooldown,
			// then the next dial is the half-open probe. A trunk that is
			// answered closes the breaker (fails resets); any other
			// outcome re-opens it for another cooldown.
			wait := e.cfg.BreakerCooldown / 4
			if t.fails >= e.cfg.BreakerThreshold {
				wait = e.cfg.BreakerCooldown
			}
			timer := e.cfg.Clock.NewTimer(wait)
			select {
			case <-timer.C():
			case <-e.stopCh:
				timer.Stop()
				return
			}
		}
		conn, err := t.dial()
		if err == nil {
			t.attach(conn)
			var answered bool
			answered, err = t.reader(conn)
			t.detach(conn, err)
			if answered {
				t.fails = 0
				continue
			}
		}
		t.fails++
		if t.fails == e.cfg.BreakerThreshold {
			t.p.tel.BreakerOpens.Add(1)
			t.p.log.Warn("edge: trunk breaker opened",
				"trunk", t.idx, "fails", t.fails, "err", err)
		}
	}
}

// dial opens the trunk connection and performs the Hello exchange. A
// router speaks the same trunk protocol a gateway does: to its shards,
// the router is just a very large gateway.
func (t *trunkConn) dial() (*wsproto.Conn, error) {
	cfg := &t.p.e.cfg
	d := cfg.Dialer
	d.MaxMessageSize = trunk.MaxMessage
	hdr := http.Header{}
	for k, vs := range cfg.Dialer.Header {
		hdr[k] = vs
	}
	if cfg.TrunkToken != "" {
		hdr.Set(trunk.TokenHeader, cfg.TrunkToken)
	}
	d.Header = hdr
	ctx, cancel := context.WithTimeout(context.Background(), trunkDialTimeout)
	defer cancel()
	conn, _, err := d.Dial(ctx, t.p.url)
	if err != nil {
		return nil, err
	}
	// Ack/reject batches are fully decoded before the next read.
	conn.ReuseReadBuffer()
	hello := trunk.AppendFrame(nil, trunk.Frame{
		Type: trunk.Hello, Version: trunk.Version, GatewayID: cfg.ID,
	})
	if err := conn.WriteMessage(wsproto.OpBinary, hello); err != nil {
		_ = conn.NetConn().Close()
		return nil, err
	}
	return conn, nil
}

// attach publishes the fresh connection: the trunk becomes eligible for
// commits and the pool's replay loop is nudged to push spilled ones
// through it.
func (t *trunkConn) attach(conn *wsproto.Conn) {
	p := t.p
	t.peer.Store(trunk.NewPeer(conn, p.e.cfg.Clock, p.e.cfg.AckTimeout))
	p.tel.TrunksHealthy.Add(1)
	p.gen.Add(1)
	p.wakeReplay()
	p.log.Info("edge: trunk established", "trunk", t.idx)
}

// detach withdraws a dead connection. The generation bump makes the
// pool's replay loop re-send every commit whose ack may have died with
// this trunk, onto whichever of the pool's trunks is healthy — session
// re-homing needs no per-session state because commits are
// self-contained.
func (t *trunkConn) detach(conn *wsproto.Conn, cause error) {
	p := t.p
	t.peer.Store(nil)
	_ = conn.NetConn().Close()
	p.tel.TrunksHealthy.Add(-1)
	p.gen.Add(1)
	p.log.Warn("edge: trunk lost", "trunk", t.idx, "err", cause)
}

// reader consumes upstream replies (acks and rejects) and runs the
// trunk's keepalive until the connection dies, returning whether the
// upstream answered anything and what ended the connection (the
// upstream's close reason, for one). It also hosts the watch
// on the edge's stop channel that tears the connection down at Close —
// so there is no moment a live connection can miss the shutdown.
func (t *trunkConn) reader(conn *wsproto.Conn) (answered bool, _ error) {
	cfg := &t.p.e.cfg
	stop := make(chan struct{})
	defer close(stop)

	renewDeadline := func() {
		if ka := cfg.KeepAliveInterval; ka > 0 {
			_ = conn.SetReadDeadline(cfg.Clock.Now().Add(2 * ka))
		}
	}
	conn.SetPongHandler(func([]byte) { renewDeadline() })
	renewDeadline()
	if ka := cfg.KeepAliveInterval; ka > 0 {
		tick := cfg.Clock.NewTicker(ka)
		go func() {
			if beacon.KeepAlive(cfg.Clock, conn, tick, stop) != nil {
				_ = conn.NetConn().Close() // the reader below notices
			}
		}()
	}
	go func() {
		select {
		case <-stop:
		case <-t.p.e.stopCh:
			_ = conn.NetConn().Close()
		}
	}()

	for {
		op, msg, err := conn.ReadMessage()
		if err != nil {
			return answered, err
		}
		renewDeadline()
		if op != wsproto.OpBinary {
			continue
		}
		frames, err := trunk.DecodeBatch(msg)
		if err != nil {
			return answered, fmt.Errorf("malformed trunk reply: %w", err)
		}
		for _, f := range frames {
			switch f.Type {
			case trunk.Ack:
				t.p.resolve(f.Stream, true, "")
				answered = true
			case trunk.Reject:
				t.p.resolve(f.Stream, false, f.Reason)
				answered = true
			}
		}
	}
}
