package wsproto

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"time"
)

// HeadTimeout bounds how long a new connection may take to send its
// request head. A tier's http.Server uses the same value as its
// ReadHeaderTimeout, so a slow head is cut off at one deadline whichever
// side ends up reading it.
const HeadTimeout = 10 * time.Second

// maxHead is the size of the pooled read buffers, so it caps a request
// head answered in place (a longer one is net/http's) and a 101 answer.
const maxHead = 4096

// Route is one path a Front upgrades in place.
type Route struct {
	// Upgrader supplies the message size limit and the compression
	// policy of the resulting connection. One with CheckOrigin set is
	// never answered in place: the callback wants an *http.Request.
	Upgrader *Upgrader
	// Admit, if set, is asked once the head has passed every handshake
	// check and before anything is written, with the request's Origin
	// ("" when it sent none). On false the connection goes to net/http
	// like any other the Front does not answer, so the refusal is the
	// handler's to write and to count.
	Admit func(origin string) bool
	// Serve owns the upgraded connection until it returns, by when it
	// has closed it and reads no more; it runs on the connection's
	// goroutine. upgrade is the time from the complete head to the 101
	// on the wire.
	Serve func(conn *Conn, upgrade time.Duration)
}

// Front is the accepting side of a tier, ahead of its http.Server: the
// server-side twin of Dialer's in-place handshake. It runs the accept
// loop on the tier's listener and reads each connection's request head
// into a pooled buffer. A clean WebSocket upgrade for a registered path
// is answered right there — the 101 Upgrader.Upgrade would write, byte
// for byte — and its session runs on the connection's goroutine without
// net/http ever seeing it. Every other connection comes out of Accept
// with the bytes already read put back in front, so the http.Server
// serving on the Front parses, routes, refuses and logs it exactly as
// if it had accepted the connection itself.
//
// The in-place parser is never laxer than net/http followed by Upgrade
// (FuzzUpgradeRequest holds it to that) and is stricter where a browser
// never goes: see parseUpgradeRequest.
type Front struct {
	ln          net.Listener
	routes      map[string]Route
	headTimeout time.Duration

	fallback chan net.Conn
	done     chan struct{} // closed by Close

	start    sync.Once
	loopDone chan struct{} // closed when the accept loop has ended
	loopErr  error         // why; read after loopDone

	mu     sync.Mutex
	heads  map[net.Conn]struct{} // connections still in their head
	headWG sync.WaitGroup

	closeOnce sync.Once
	closeErr  error
}

// NewFront returns a Front accepting on ln and upgrading routes (path →
// route) in place. Nothing runs until the first Accept, so serving on
// it is what starts it: httpServer.Serve(front).
func NewFront(ln net.Listener, routes map[string]Route) *Front {
	return &Front{
		ln:          ln,
		routes:      routes,
		headTimeout: HeadTimeout,
		fallback:    make(chan net.Conn),
		done:        make(chan struct{}),
		loopDone:    make(chan struct{}),
		heads:       map[net.Conn]struct{}{},
	}
}

// Accept returns the next connection that was not answered in place.
// It implements net.Listener for the tier's http.Server.
func (f *Front) Accept() (net.Conn, error) {
	f.start.Do(func() { go f.acceptLoop() })
	select {
	case nc := <-f.fallback:
		return nc, nil
	case <-f.loopDone:
		return nil, f.loopErr
	}
}

// Addr returns the real listener's address.
func (f *Front) Addr() net.Addr { return f.ln.Addr() }

// Close closes the real listener, ends the accept loop and closes every
// connection still in its head, returning once their goroutines have
// gone. Established sessions are the tier's to drain; connections
// already handed to net/http are its server's to close.
func (f *Front) Close() error {
	f.closeOnce.Do(func() {
		close(f.done)
		f.closeErr = f.ln.Close()
		f.start.Do(func() { // never served: there is no loop to wait for
			f.loopErr = net.ErrClosed
			close(f.loopDone)
		})
		<-f.loopDone
		f.mu.Lock()
		for nc := range f.heads {
			_ = nc.Close()
		}
		f.mu.Unlock()
		f.headWG.Wait()
	})
	return f.closeErr
}

// acceptLoop accepts until the listener fails for good, backing off on
// temporary errors (EMFILE, say) the way net/http does rather than
// ending the tier's Serve.
func (f *Front) acceptLoop() {
	defer close(f.loopDone)
	var backoff time.Duration
	for {
		nc, err := f.ln.Accept()
		if err != nil {
			select {
			case <-f.done:
				f.loopErr = net.ErrClosed
				return
			default:
			}
			if ne, ok := err.(net.Error); ok && ne.Temporary() {
				backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
				t := time.NewTimer(backoff)
				select {
				case <-t.C:
					continue
				case <-f.done:
					t.Stop()
					f.loopErr = net.ErrClosed
					return
				}
			}
			f.loopErr = err
			return
		}
		backoff = 0
		f.headWG.Add(1)
		f.mu.Lock()
		f.heads[nc] = struct{}{}
		f.mu.Unlock()
		go f.serve(nc)
	}
}

// headDone marks nc as past its head: Close no longer owns it.
func (f *Front) headDone(nc net.Conn) {
	f.mu.Lock()
	delete(f.heads, nc)
	f.mu.Unlock()
	f.headWG.Done()
}

// serve is one connection's goroutine: the head, then either the
// session or the hand-over.
func (f *Front) serve(nc net.Conn) {
	br := getHeadReader(nc)
	conn, route, took := f.handshake(nc, br)
	f.headDone(nc)
	if conn == nil {
		return
	}
	route.Serve(conn, took)
	conn.endRead(net.ErrClosed) // the session is over and reads no more
}

// handshake reads nc's request head and answers it in place when it
// can. A nil Conn means the connection is gone from this goroutine:
// closed, or handed to net/http along with br.
func (f *Front) handshake(nc net.Conn, br *bufio.Reader) (*Conn, Route, time.Duration) {
	_ = nc.SetReadDeadline(time.Now().Add(f.headTimeout))
	head, err := peekHeader(br)
	if err != nil && !errors.Is(err, bufio.ErrBufferFull) {
		// The peer went away or ran out the deadline mid-head. net/http
		// answers neither; nor do we.
		_ = nc.Close()
		putHeadReader(br)
		return nil, Route{}, 0
	}
	began := time.Now()
	req, clean := parseUpgradeRequest(head) // an overlong head is nil here, and not clean
	route, known := f.routes[string(req.path)]
	if !clean || !known || route.Upgrader.CheckOrigin != nil ||
		route.Admit != nil && !route.Admit(string(req.origin)) {
		f.handOver(nc, br)
		return nil, Route{}, 0
	}
	extension, compress := "", false
	if route.Upgrader.EnableCompression {
		extension, compress = acceptExtension(req.offers)
	}
	s := getScratch()
	s.buf = appendUpgradeResponse(s.buf[:0], string(req.key), extension)
	_, err = nc.Write(s.buf)
	s.release()
	if err != nil {
		_ = nc.Close()
		putHeadReader(br)
		return nil, Route{}, 0
	}
	_, _ = br.Discard(len(head)) // buffered: cannot fail
	// What follows the blank line is the WebSocket stream, and its
	// deadlines are the session's.
	_ = nc.SetReadDeadline(time.Time{})
	conn := newConn(nc, br, RoleServer, route.Upgrader.MaxMessageSize)
	conn.pooled = true
	conn.compress = compress
	return conn, route, time.Since(began)
}

// handOver passes nc to the http.Server behind Accept, which sets its
// own deadlines from there.
func (f *Front) handOver(nc net.Conn, br *bufio.Reader) {
	select {
	case f.fallback <- &replayConn{Conn: nc, br: br}:
	case <-f.done:
		_ = nc.Close()
		putHeadReader(br)
	}
}

// replayConn is a connection whose first bytes were read by the Front:
// reads drain those, then go to the transport.
type replayConn struct {
	net.Conn
	br *bufio.Reader // nil once drained and back in the pool
}

func (c *replayConn) Read(p []byte) (int, error) {
	if c.br != nil {
		if c.br.Buffered() > 0 {
			return c.br.Read(p) // from the buffer alone
		}
		putHeadReader(c.br)
		c.br = nil
	}
	return c.Conn.Read(p)
}

// headReaderPool recycles connection read buffers on both ends: a Front
// takes one at accept, a Dialer before it reads the 101. Only a reader
// from the pool goes back (Conn.endRead, replayConn), and never one a
// rejected dial's response body still reads from.
var headReaderPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, maxHead) }}

func getHeadReader(r io.Reader) *bufio.Reader {
	br := headReaderPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

func putHeadReader(br *bufio.Reader) {
	br.Reset(nil)
	headReaderPool.Put(br)
}

// upgradeRequest is what the in-place parser keeps of a request head.
// The slices alias the head.
type upgradeRequest struct {
	path   []byte   // request target, less its query
	key    []byte   // Sec-WebSocket-Key
	origin []byte   // first Origin value
	offers []string // every Sec-WebSocket-Extensions value, in order
}

// parseUpgradeRequest reports whether head (request line through blank
// line) is a WebSocket upgrade that net/http would parse and route by
// its literal path, and that Upgrader.Upgrade would accept short of its
// CheckOrigin: the method, both upgrade tokens, version 13 and a valid
// key, each read the way http.Header.Get and Values read them. The rest
// is stricter than net/http, in ways no browser's handshake runs into;
// each of these goes to net/http, not to a refusal:
//
//   - the request line is exactly "GET <target> HTTP/1.1", the target in
//     origin form ("/path[?query]") with no control bytes; the path is
//     compared to the registered ones as written, so an escaped or
//     uncleaned spelling of one is not a match;
//   - exactly one Host field, of host characters only;
//   - field lines hold to net/textproto's syntax with no space before
//     the colon and no folded continuation;
//   - no Content-Length, Transfer-Encoding, Trailer or Expect: a request
//     with a body, or one that waits for a 100, is not a handshake.
func parseUpgradeRequest(head []byte) (req upgradeRequest, clean bool) {
	const method, proto = "GET ", " HTTP/1.1"
	line, rest := cutLine(head)
	if len(line) <= len(method)+len(proto) ||
		string(line[:len(method)]) != method || string(line[len(line)-len(proto):]) != proto {
		return req, false
	}
	target := line[len(method) : len(line)-len(proto)]
	if target[0] != '/' {
		return req, false
	}
	for _, c := range target {
		if c <= ' ' || c == 0x7f {
			return req, false
		}
	}
	req.path, _, _ = bytes.Cut(target, []byte{'?'})

	var (
		hosts               int
		upgrade, connection bool
		sawVersion, sawKey  bool
		sawOrigin           bool
		version13           bool
	)
	for {
		line, rest = cutLine(rest)
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return req, false
		}
		name, value := line[:colon], line[colon+1:]
		if !validFieldLine(name, value) || bytes.IndexByte(name, ' ') >= 0 {
			return req, false
		}
		value = bytes.Trim(value, " \t")
		switch {
		case isField(name, "Host"):
			if hosts++; !validHost(value) {
				return req, false
			}
		case isField(name, "Upgrade"):
			upgrade = upgrade || valueContainsToken(string(value), "websocket")
		case isField(name, "Connection"):
			connection = connection || valueContainsToken(string(value), "upgrade")
		case isField(name, "Sec-WebSocket-Version"):
			if !sawVersion {
				sawVersion, version13 = true, string(value) == "13"
			}
		case isField(name, "Sec-WebSocket-Key"):
			if !sawKey {
				sawKey, req.key = true, value
			}
		case isField(name, "Origin"):
			if !sawOrigin {
				sawOrigin, req.origin = true, value
			}
		case isField(name, "Sec-WebSocket-Extensions"):
			req.offers = append(req.offers, string(value))
		case isField(name, "Content-Length"), isField(name, "Transfer-Encoding"),
			isField(name, "Trailer"), isField(name, "Expect"):
			return req, false
		}
	}
	clean = hosts == 1 && upgrade && connection && version13 && validClientKey(string(req.key))
	return req, clean
}

// isField reports whether name is the header field want, in any case.
// (A name is token characters by the time it gets here, so folding is
// ASCII folding.)
func isField(name []byte, want string) bool {
	return len(name) == len(want) && strings.EqualFold(string(name), want)
}

// validHost holds a Host value to the bytes net/http's server allows in
// one (any byte of a uri-host or port, checked no further than that).
func validHost(host []byte) bool {
	for _, c := range host {
		alnum := '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
		if !alnum && strings.IndexByte("!$%&'()*+,-.:;=[]_~", c) < 0 {
			return false
		}
	}
	return true
}
