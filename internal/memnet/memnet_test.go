package memnet

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"adaudit/internal/faultnet"
	"adaudit/internal/simclock"
)

// connect dials addr on nw and returns both ends.
func connect(t *testing.T, nw *Network, ln net.Listener, addr string) (client, server net.Conn) {
	t.Helper()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	client, err := nw.Dial(context.Background(), "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	server = <-accepted
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func listen(t *testing.T, nw *Network, addr string) net.Listener {
	t.Helper()
	ln, err := nw.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

// within fails unless ch delivers inside a generous real-time bound.
func within[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never happened", what)
		panic("unreachable")
	}
}

// waitUntil polls cond in real time.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func read(c net.Conn, n int) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(c, make([]byte, n))
		done <- err
	}()
	return done
}

// TestDeadlineFollowsTheVirtualClock: a read deadline fires only once
// the network's clock passes it, however long that takes in real time,
// and moving the deadline while the read waits re-arms it.
func TestDeadlineFollowsTheVirtualClock(t *testing.T) {
	clk := simclock.NewVirtual(time.Time{})
	nw := &Network{Clock: clk, Buffer: 64}
	client, _ := connect(t, nw, listen(t, nw, "svc:1"), "svc:1")

	_ = client.SetReadDeadline(clk.Now().Add(time.Second))
	done := read(client, 1)
	waitUntil(t, "the read to wait on the clock", func() bool { return clk.Waiters() == 1 })
	clk.Advance(999 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("read ended (%v) before its deadline", err)
	case <-time.After(20 * time.Millisecond):
	}
	_ = client.SetReadDeadline(clk.Now().Add(time.Second))
	clk.Advance(time.Millisecond) // the first deadline, since moved
	select {
	case err := <-done:
		t.Fatalf("read ended (%v) at a deadline that had been moved", err)
	case <-time.After(20 * time.Millisecond):
	}
	clk.Advance(time.Second)
	var ne net.Error
	if err := within(t, done, "the deadline"); !errors.As(err, &ne) || !ne.Timeout() || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read past its deadline: %v, want a timeout", err)
	}
	waitUntil(t, "the read's timer to stop", func() bool { return clk.Waiters() == 0 })
}

// TestBufferedWriteReturnsBeforeTheRead: with a buffer, a write that
// fits returns at once and the bytes are in flight until read; one that
// does not fit waits for the reader to make room.
func TestBufferedWriteReturnsBeforeTheRead(t *testing.T) {
	nw := &Network{Buffer: 8}
	client, server := connect(t, nw, listen(t, nw, "svc:1"), "svc:1")
	if n, err := client.Write([]byte("01234567")); n != 8 || err != nil {
		t.Fatalf("write = %d, %v", n, err)
	}
	if nw.Idle() {
		t.Fatal("the network is idle with 8 bytes unread")
	}
	wrote := make(chan error, 1)
	go func() { _, err := client.Write([]byte("89")); wrote <- err }()
	select {
	case err := <-wrote:
		t.Fatalf("a write past the buffer returned (%v) before any read", err)
	case <-time.After(20 * time.Millisecond):
	}
	buf := make([]byte, 10)
	if _, err := io.ReadFull(server, buf); err != nil || string(buf) != "0123456789" {
		t.Fatalf("read %q, %v", buf, err)
	}
	if err := within(t, wrote, "the second write"); err != nil {
		t.Fatal(err)
	}
	if !nw.Idle() {
		t.Fatal("the network is not idle with everything read")
	}
}

// TestUnbufferedWriteStallsUntilRead: with Buffer 0 a write returns only
// once the peer has read it all — a peer that stops reading stalls the
// writer — and a write deadline takes back what was not read.
func TestUnbufferedWriteStallsUntilRead(t *testing.T) {
	nw := &Network{}
	client, server := connect(t, nw, listen(t, nw, "svc:1"), "svc:1")
	wrote := make(chan error, 1)
	go func() { _, err := client.Write([]byte("abcd")); wrote <- err }()
	select {
	case err := <-wrote:
		t.Fatalf("an unbuffered write returned (%v) before any read", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := within(t, read(server, 2), "the first read"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-wrote:
		t.Fatalf("the write returned (%v) with half of it unread", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := within(t, read(server, 2), "the second read"); err != nil {
		t.Fatal(err)
	}
	if err := within(t, wrote, "the write"); err != nil {
		t.Fatal(err)
	}

	_ = client.SetWriteDeadline(time.Now().Add(20 * time.Millisecond))
	if n, err := client.Write([]byte("never read")); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("a write nobody reads = %d, %v; want 0 and a timeout", n, err)
	}
	if !nw.Idle() {
		t.Fatal("a timed-out write left bytes in flight")
	}
}

// TestCloseReachesThePeer: the peer reads what was written before the
// close, then io.EOF, and its writes fail; the closed end's own
// operations fail with net.ErrClosed, a blocked one included.
func TestCloseReachesThePeer(t *testing.T) {
	nw := &Network{Buffer: 64}
	client, server := connect(t, nw, listen(t, nw, "svc:1"), "svc:1")
	if _, err := server.Write([]byte("bye")); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write([]byte("dropped")); err != nil {
		t.Fatal(err)
	}
	blocked := read(server, 64)
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	if err := within(t, blocked, "the blocked read"); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("a read blocked across its own close: %v, want net.ErrClosed", err)
	}
	if got, err := io.ReadAll(client); string(got) != "bye" || err != nil {
		t.Fatalf("peer read %q, %v; want the bytes written before the close, then EOF", got, err)
	}
	if _, err := client.Write([]byte("x")); err == nil || errors.Is(err, net.ErrClosed) {
		t.Fatalf("peer write after a close: %v, want a reset", err)
	}
	if _, err := server.Write([]byte("x")); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("write on a closed end: %v, want net.ErrClosed", err)
	}
	if err := server.Close(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("second close: %v, want net.ErrClosed", err)
	}
	if !nw.Idle() {
		t.Fatal("bytes sent toward the closed end are still in flight")
	}
}

// TestDialNeedsABoundAddress: a dial to an address nothing listens on,
// or whose listener closed, is refused at once; the address can then be
// bound again and accepts dials.
func TestDialNeedsABoundAddress(t *testing.T) {
	nw := &Network{Buffer: 64}
	if _, err := nw.Dial(context.Background(), "tcp", "nobody:1"); err == nil {
		t.Fatal("dial to an unbound address succeeded")
	}
	ln := listen(t, nw, "svc:1")
	if _, err := nw.Listen("svc:1"); err == nil {
		t.Fatal("an address was bound twice")
	}
	connect(t, nw, ln, "svc:1")
	ln.Close()
	if _, err := nw.Dial(context.Background(), "tcp", "svc:1"); err == nil {
		t.Fatal("dial to a closed address succeeded")
	}
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("accept on a closed listener: %v", err)
	}
	again := listen(t, nw, "svc:1")
	client, server := connect(t, nw, again, "svc:1")
	if _, err := client.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	if err := within(t, read(server, 2), "the read on the rebound address"); err != nil {
		t.Fatal(err)
	}
	if !nw.Idle() {
		t.Fatal("the network is not idle after every dial was accepted and read")
	}
}

// TestFaultPlanOverAListener: a faultnet plan wrapping a memnet listener
// injects its faults on the accepted side, as over TCP.
func TestFaultPlanOverAListener(t *testing.T) {
	clk := simclock.NewVirtual(time.Time{})
	nw := &Network{Clock: clk, Buffer: 64}
	plan := &faultnet.Plan{Seed: 7, ResetWriteProb: 1, KillAfter: time.Second, Clock: clk}
	ln := plan.Listen(listen(t, nw, "svc:1"))

	client, server := connect(t, nw, ln, "svc:1")
	if _, err := server.Write([]byte("x")); !errors.Is(err, faultnet.ErrInjectedReset) {
		t.Fatalf("write under a reset-every-write plan: %v", err)
	}
	if _, err := io.ReadAll(client); err != nil {
		t.Fatalf("the peer of a reset connection reads %v, want EOF", err)
	}

	client, _ = connect(t, nw, ln, "svc:1")
	done := read(client, 1)
	clk.Advance(time.Second)
	if err := within(t, done, "the kill"); !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("the peer of a killed connection reads %v, want EOF", err)
	}
	if resets, kills, _, _ := plan.Stats(); resets != 1 || kills != 1 {
		t.Fatalf("plan stats resets=%d kills=%d, want 1 and 1", resets, kills)
	}
}
