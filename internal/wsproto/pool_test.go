package wsproto

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"adaudit/internal/memnet"
)

// poolServer is a Front on a memnet listener: /ws is upgraded in place
// and echoes until the peer closes, signalling ended as its session
// returns; every other path is net/http's, which refuses it with a 503,
// a Retry-After and busyBody.
type poolServer struct {
	net *memnet.Network
	// ended has room for more session ends than any test has sessions
	// open at once, so a session never waits for its test to look.
	ended chan struct{}
}

const busyRetryAfter = "7"

// busyBody is long enough to sit in the dialer's read buffer beside the
// rejection's header, and says where each of its bytes belongs.
var busyBody = func() string {
	var b strings.Builder
	for i := 0; b.Len() < 1500; i++ {
		fmt.Fprintf(&b, "busy-%04d;", i)
	}
	return b.String()
}()

func startPoolServer(t *testing.T) *poolServer {
	t.Helper()
	s := &poolServer{net: &memnet.Network{}, ended: make(chan struct{}, 16)}
	ln, err := s.net.Listen("collector:80")
	if err != nil {
		t.Fatal(err)
	}
	front := NewFront(ln, map[string]Route{"/ws": {
		Upgrader: &Upgrader{},
		Serve: func(conn *Conn, _ time.Duration) {
			echoSession(conn)
			s.ended <- struct{}{}
		},
	}})
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", busyRetryAfter)
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, busyBody)
	}), ReadHeaderTimeout: HeadTimeout}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(front) }()
	t.Cleanup(func() {
		srv.Close()
		<-served
	})
	return s
}

func (s *poolServer) dial(path string) (*Conn, *http.Response, error) {
	d := &Dialer{NetDial: s.net.Dial}
	return d.Dial(context.Background(), "ws://collector:80"+path)
}

// cycle is one pooled session from end to end: dial, close, read to the
// error that ends the read side, and wait for the server's session to
// end too.
func (s *poolServer) cycle(t testing.TB) {
	conn, _, err := s.dial("/ws")
	if err != nil {
		t.Fatal(err)
	}
	conn.Close(CloseNormal, "")
	if _, _, err := conn.ReadMessage(); err == nil {
		t.Fatal("read after Close succeeded")
	}
	<-s.ended
}

// TestRejectedDialKeepsItsReader: a rejection's body is read through
// the reader the dial read its header with, so that reader stays out of
// the pool. The body and Retry-After come out intact after fifty
// further sessions have taken readers from the pool and given them
// back.
func TestRejectedDialKeepsItsReader(t *testing.T) {
	s := startPoolServer(t)
	conn, resp, err := s.dial("/busy")
	if err == nil || conn != nil || resp == nil {
		t.Fatalf("dial = %v, %v, %v; want the rejection", conn, resp, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	for i := 0; i < 50; i++ {
		s.cycle(t)
	}
	if got := resp.Header.Get("Retry-After"); got != busyRetryAfter {
		t.Errorf("Retry-After = %q, want %q", got, busyRetryAfter)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil || string(body) != busyBody {
		t.Fatalf("body after 50 pooled sessions = %q, %v; want %q", body, err, busyBody)
	}
}

// dialCycleAllocs pins one pooled session's allocations, both ends
// counted: dial, in-place upgrade, close and both read sides ending.
// When the dialer made a reader of its own, the same cycle cost 53: two
// more, the reader's struct and its 4 KiB buffer.
const dialCycleAllocs = 51

func TestDialCycleAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins do not hold under -race")
	}
	s := startPoolServer(t)
	s.cycle(t) // warm the pools
	if n := testing.AllocsPerRun(200, func() { s.cycle(t) }); n > dialCycleAllocs {
		t.Fatalf("dial → close → read to error costs %.0f allocations, want at most %d", n, dialCycleAllocs)
	}
}

// TestPooledReadersUnderConcurrentSessions: eight goroutines run
// sessions at once, each reading its echoes on a goroutine of its own
// while the session's owner closes the connection at a point of its
// choosing, so the reader's end races Close. Readers pass from one
// connection to the next through the pool all the while; no message any
// connection reads may differ from the one it sent. Run under -race.
func TestPooledReadersUnderConcurrentSessions(t *testing.T) {
	s := startPoolServer(t)
	const workers, sessions, messages = 8, 12, 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < sessions; i++ {
				if err := s.racingSession(w, i, messages); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// racingSession sends messages of sizes on both sides of the read
// buffer's and checks every echo its reader sees, closing after the
// first closeAfter echoes have arrived.
func (s *poolServer) racingSession(w, i, messages int) error {
	conn, _, err := s.dial("/ws")
	if err != nil {
		return err
	}
	sent := make([][]byte, messages)
	for k := range sent {
		tag := fmt.Sprintf("w%d-s%d-m%d:", w, i, k)
		sent[k] = bytes.Repeat([]byte(tag), 1+(k*977+w*131+i*37)%1100)
	}
	closeAfter := (w + i) % (messages + 1)
	echoed := make(chan int, messages)
	readErr := make(chan error, 1)
	go func() {
		for k := 0; ; k++ {
			_, msg, err := conn.ReadMessage()
			if err != nil {
				readErr <- nil
				return
			}
			if k >= messages || !bytes.Equal(msg, sent[k]) {
				readErr <- fmt.Errorf("worker %d session %d: echo %d reads %.40q…, sent %.40q…", w, i, k, msg, sent[min(k, messages-1)])
				return
			}
			echoed <- k
		}
	}()
	for _, m := range sent {
		if conn.WriteMessage(OpBinary, m) != nil {
			break
		}
	}
	for k := 0; k < closeAfter && err == nil; k++ {
		select {
		case <-echoed:
		case err = <-readErr:
		}
	}
	conn.Close(CloseNormal, "")
	if err == nil {
		err = <-readErr
	}
	<-s.ended
	return err
}
