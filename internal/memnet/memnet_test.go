package memnet

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

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

// faulty returns both ends of a connection whose accepted end carries
// f, on a network whose writes buffer up to 1 MiB unread and whose
// deadlines and delays run on clk (nil: the real clock).
func faulty(t *testing.T, f *Faults, clk simclock.Clock) (client net.Conn, server *Conn) {
	t.Helper()
	nw := &Network{Clock: clk, Buffer: 1 << 20}
	ln, err := nw.ListenFaulty("svc:1", f)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, s := connect(t, nw, ln, "svc:1")
	return client, s.(*Conn)
}

// TestFaultPlanOverAListener: a faulty listener injects its faults on
// the accepted side, and the peer of a reset or killed end reads EOF.
func TestFaultPlanOverAListener(t *testing.T) {
	clk := simclock.NewVirtual(time.Time{})
	nw := &Network{Clock: clk, Buffer: 64}
	f := &Faults{Seed: 7, ResetWriteProb: 1, KillAfter: time.Second}
	ln, err := nw.ListenFaulty("svc:1", f)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	client, server := connect(t, nw, ln, "svc:1")
	if _, err := server.Write([]byte("x")); !errors.Is(err, ErrReset) {
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
	if resets, kills := f.Resets.Load(), f.Kills.Load(); resets != 1 || kills != 1 {
		t.Fatalf("plan counted resets=%d kills=%d, want 1 and 1", resets, kills)
	}
}

func TestZeroPlanPassesTrafficThrough(t *testing.T) {
	var f Faults
	c, s := faulty(t, &f, nil)
	msg := []byte("hello collector")
	if _, err := s.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("got %q want %q", buf, msg)
	}
	if r, k, pw, tr, sl := f.Resets.Load(), f.Kills.Load(), f.PartialWrites.Load(), f.Truncations.Load(), f.SlowLinks.Load(); r+k+pw+tr+sl != 0 {
		t.Fatalf("zero plan injected faults: resets=%d kills=%d partial=%d trunc=%d slow=%d", r, k, pw, tr, sl)
	}
}

func TestPartialWriteTearsConnection(t *testing.T) {
	f := Faults{Seed: 42, PartialWriteProb: 1}
	c, s := faulty(t, &f, nil)
	msg := make([]byte, 1024)
	n, err := s.Write(msg)
	if !errors.Is(err, ErrReset) {
		t.Fatalf("want ErrReset, got n=%d err=%v", n, err)
	}
	if n <= 0 || n >= len(msg) {
		t.Fatalf("partial write delivered %d of %d bytes, want a strict prefix", n, len(msg))
	}
	// The peer sees exactly the prefix, then EOF.
	got, _ := io.ReadAll(c)
	if len(got) != n {
		t.Fatalf("peer received %d bytes, sender delivered %d", len(got), n)
	}
	if pw := f.PartialWrites.Load(); pw != 1 {
		t.Fatalf("partial write counter = %d, want 1", pw)
	}
}

func TestTruncationLiesAboutSuccess(t *testing.T) {
	f := Faults{Seed: 7, TruncateProb: 1}
	c, s := faulty(t, &f, nil)
	msg := make([]byte, 512)
	n, err := s.Write(msg)
	if err != nil || n != len(msg) {
		t.Fatalf("truncating write should report full success, got n=%d err=%v", n, err)
	}
	s.Close()
	got, _ := io.ReadAll(c)
	if len(got) >= len(msg) {
		t.Fatalf("peer received %d bytes, want fewer than the %d sent", len(got), len(msg))
	}
}

func TestInjectedReset(t *testing.T) {
	f := Faults{Seed: 3, ResetWriteProb: 1}
	_, s := faulty(t, &f, nil)
	_, err := s.Write([]byte("x"))
	if !errors.Is(err, ErrReset) {
		t.Fatalf("want ErrReset, got %v", err)
	}
	var ne net.Error
	if !errors.As(err, &ne) || ne.Timeout() {
		t.Fatalf("injected reset must be a non-timeout net.Error, got %#v", err)
	}
	// Subsequent ops fail fast.
	if _, err := s.Read(make([]byte, 1)); !errors.Is(err, ErrReset) {
		t.Fatalf("post-reset read: want ErrReset, got %v", err)
	}
	if _, err := s.Write([]byte("x")); !errors.Is(err, ErrReset) {
		t.Fatalf("post-reset write: want ErrReset, got %v", err)
	}
	if n := f.Resets.Load(); n != 1 {
		t.Fatalf("reset counter = %d, want 1", n)
	}
}

// TestScheduledKill: the kill fires once the network's clock reaches
// it, and a connection closed first leaves no timer behind.
func TestScheduledKill(t *testing.T) {
	clk := simclock.NewVirtual(time.Time{})
	f := Faults{Seed: 9, KillAfter: 20 * time.Millisecond}
	_, s := faulty(t, &f, clk)
	done := read(s, 1) // blocks until the kill fires
	clk.Advance(19 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("read ended (%v) 19ms into a 20ms kill", err)
	case <-time.After(20 * time.Millisecond):
	}
	clk.Advance(time.Millisecond)
	if err := within(t, done, "the kill"); !errors.Is(err, ErrReset) {
		t.Fatalf("want ErrReset after kill, got %v", err)
	}
	if k := f.Kills.Load(); k != 1 {
		t.Fatalf("kill counter = %d, want 1", k)
	}

	_, s = faulty(t, &f, clk)
	s.Close()
	waitUntil(t, "the closed connection's kill timer to stop", func() bool { return clk.Waiters() == 0 })
	clk.Advance(time.Second)
	if k := f.Kills.Load(); k != 1 {
		t.Fatalf("kill counter = %d after a closed connection's kill came due, want 1", k)
	}
}

// TestConcurrentWritesShareTheDraws: writers racing on one faulty end
// take turns at its draws (run it under -race); each write reports the
// whole written, and the truncated ones leave the peer short.
func TestConcurrentWritesShareTheDraws(t *testing.T) {
	f := Faults{Seed: 5, TruncateProb: 0.5}
	c, s := faulty(t, &f, nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				if n, err := s.Write(make([]byte, 64)); n != 64 || err != nil {
					t.Errorf("write = %d, %v; want a full write reported", n, err)
				}
			}
		}()
	}
	wg.Wait()
	s.Close()
	got, _ := io.ReadAll(c)
	if tr := f.Truncations.Load(); tr == 0 || tr == 64 || len(got) >= 64*64 {
		t.Fatalf("%d of 64 writes truncated, %d of %d bytes received; want a mix", tr, len(got), 64*64)
	}
}

// writeSchedule writes up to 32 frames of 4 KiB through a connection
// under f and returns each write's count, up to the first that fails.
func writeSchedule(t *testing.T, f *Faults) []int {
	c, s := faulty(t, f, nil)
	go io.Copy(io.Discard, c)
	var outcomes []int
	for i := 0; i < 32; i++ {
		n, err := s.Write(make([]byte, 4096))
		outcomes = append(outcomes, n)
		if err != nil {
			break
		}
	}
	return outcomes
}

func TestDeterministicFaultSchedule(t *testing.T) {
	// Two identical plans driving identical traffic make identical
	// fault decisions — the property chaos tests rely on. The delivered
	// count per write fingerprints the seed: where a write tears is
	// drawn.
	run := func(seed int64) []int {
		return writeSchedule(t, &Faults{Seed: seed, PartialWriteProb: 0.3, TruncateProb: 0.2})
	}
	a, b := run(11), run(11)
	if !slices.Equal(a, b) {
		t.Fatalf("same-seed runs diverged: %v vs %v", a, b)
	}
	if c := run(12); slices.Equal(a, c) {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

// TestSlowLinkThrottlesDrawnConnections: with probability 1 every
// connection draws a rate in [ceil/2, ceil], and a write returns once
// the network's clock has moved through its bytes at that rate.
func TestSlowLinkThrottlesDrawnConnections(t *testing.T) {
	clk := simclock.NewVirtual(time.Time{})
	f := Faults{Seed: 7, SlowLinkProb: 1, SlowLinkBytesPerSecond: 128 << 10}
	c, s := faulty(t, &f, clk)
	if s.byteRate < 64<<10 || s.byteRate > 128<<10 {
		t.Fatalf("drawn byte rate %d outside [%d, %d]", s.byteRate, 64<<10, 128<<10)
	}
	go io.Copy(io.Discard, c)
	wrote := make(chan error, 1)
	go func() { _, err := s.Write(make([]byte, 32<<10)); wrote <- err }()
	waitUntil(t, "the write to wait out its bytes", func() bool { return clk.Waiters() == 1 })
	took := time.Duration(float64(32<<10) / float64(s.byteRate) * float64(time.Second))
	clk.Advance(took - time.Nanosecond)
	select {
	case err := <-wrote:
		t.Fatalf("32KiB moved (%v) before %v on a %d B/s slow link", err, took, s.byteRate)
	case <-time.After(20 * time.Millisecond):
	}
	clk.Advance(time.Nanosecond)
	if err := within(t, wrote, "the throttled write"); err != nil {
		t.Fatal(err)
	}
	if n := f.SlowLinks.Load(); n != 1 {
		t.Fatalf("slow-link counter = %d, want 1", n)
	}
}

// slowLinkRates returns the rates the first n connections under f draw.
func slowLinkRates(t *testing.T, f *Faults, n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		c, s := faulty(t, f, nil)
		out = append(out, s.byteRate)
		c.Close()
		s.Close()
	}
	return out
}

func TestSlowLinkDeterministicAcrossPlans(t *testing.T) {
	// Two same-seed plans hand identical rates to the same accept
	// sequence; a different seed diverges somewhere.
	rates := func(seed int64) []int {
		return slowLinkRates(t, &Faults{Seed: seed, SlowLinkProb: 0.5, SlowLinkBytesPerSecond: 100_000}, 16)
	}
	a, b := rates(21), rates(21)
	if !slices.Equal(a, b) {
		t.Fatalf("same-seed plans diverged: %v vs %v", a, b)
	}
	drew := 0
	for _, r := range a {
		if r > 0 {
			if r < 50_000 || r > 100_000 {
				t.Fatalf("drawn rate %d outside [50000, 100000]", r)
			}
			drew++
		}
	}
	if drew == 0 || drew == len(a) {
		t.Fatalf("SlowLinkProb=0.5 drew %d/%d slow links, want a mix", drew, len(a))
	}
	if slices.Equal(a, rates(22)) {
		t.Fatal("different seeds produced identical slow-link draws")
	}
}

// TestSeedsDrawTheFaultsTheyAlwaysDrew pins what a seed means: the
// chaos tests' seeds were tuned against these draws, so a change to the
// stream fork or the draw order must show here, not as a chaos test
// that quietly stops biting.
func TestSeedsDrawTheFaultsTheyAlwaysDrew(t *testing.T) {
	// The gateway chaos test's trunk plan, less its kills, which draw
	// after the slow link.
	rates := slowLinkRates(t, &Faults{Seed: 7, SlowLinkProb: 0.5, SlowLinkBytesPerSecond: 512 << 10}, 8)
	if want := []int{271310, 269299, 0, 0, 0, 0, 281765, 0}; !slices.Equal(rates, want) {
		t.Errorf("slow-link rates of seed 7 = %v, want %v", rates, want)
	}
	// TestDeterministicFaultSchedule's seed-11 plan: one connection
	// writing until it tears, then the first write of each of 32
	// accepts, as the bytes the peer received (negative: torn).
	plan := func() *Faults { return &Faults{Seed: 11, PartialWriteProb: 0.3, TruncateProb: 0.2} }
	if got, want := writeSchedule(t, plan()), []int{1423}; !slices.Equal(got, want) {
		t.Errorf("seed 11 schedule = %v, want %v", got, want)
	}
	f := plan()
	var got []int
	for i := 0; i < 32; i++ {
		c, s := faulty(t, f, nil)
		_, err := s.Write(make([]byte, 4096))
		s.Close()
		b, _ := io.ReadAll(c)
		if got = append(got, len(b)); err != nil {
			got[i] = -len(b)
		}
	}
	want := []int{-1423, 175, 4096, 4096, 4096, 4096, 4096, -1326, 4096, -3956, 4096, 4096, -1601, 4096, 4096, 4096,
		4096, -69, -2112, -1338, -3775, 4096, 4096, 4096, 4096, 87, 4096, -971, 614, -2059, 4096, 4096}
	if !slices.Equal(got, want) {
		t.Errorf("first writes of seed 11's 32 accepts = %v, want %v", got, want)
	}
}
