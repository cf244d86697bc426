package faultnet

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"adaudit/internal/memnet"
	"adaudit/internal/simclock"
)

// pair returns two ends of an in-memory connection whose writes buffer
// up to 1 MiB unread, measuring deadlines on clk (nil: the real clock).
func pair(t *testing.T, clk simclock.Clock) (client, server net.Conn) {
	t.Helper()
	nw := &memnet.Network{Clock: clk, Buffer: 1 << 20}
	ln, err := nw.Listen("faultnet:1")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	client, err = nw.Dial(context.Background(), "tcp", "faultnet:1")
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { client.Close(); r.c.Close() })
	return client, r.c
}

// waitForWaiters polls until clk has n pending timers.
func waitForWaiters(t *testing.T, clk *simclock.Virtual, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); clk.Waiters() != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the clock has %d timers, want %d", clk.Waiters(), n)
		}
	}
}

func TestZeroPlanPassesTrafficThrough(t *testing.T) {
	var plan Plan
	c, s := pair(t, nil)
	fc := plan.Wrap(c)
	msg := []byte("hello collector")
	go func() {
		if _, err := fc.Write(msg); err != nil {
			t.Error(err)
		}
	}()
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(s, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("got %q want %q", buf, msg)
	}
	if r, k, pw, tr := plan.Stats(); r+k+pw+tr != 0 {
		t.Fatalf("zero plan injected faults: resets=%d kills=%d partial=%d trunc=%d", r, k, pw, tr)
	}
}

// TestAddedLatency: a read returns only once the plan's clock has moved
// through its latency.
func TestAddedLatency(t *testing.T) {
	clk := simclock.NewVirtual(time.Time{})
	plan := Plan{Seed: 1, Latency: 30 * time.Millisecond, Clock: clk}
	c, s := pair(t, clk)
	fc := plan.Wrap(c)
	if _, err := s.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	read := make(chan error, 1)
	go func() {
		_, err := fc.Read(make([]byte, 1))
		read <- err
	}()
	waitForWaiters(t, clk, 1)
	clk.Advance(29 * time.Millisecond)
	select {
	case err := <-read:
		t.Fatalf("read returned (%v) 29ms into 30ms of injected latency", err)
	default:
	}
	clk.Advance(time.Millisecond)
	if err := <-read; err != nil {
		t.Fatal(err)
	}
}

func TestBandwidthThrottle(t *testing.T) {
	// 64 KiB at 256 KiB/s should take ~250ms.
	plan := Plan{Seed: 1, BytesPerSecond: 256 << 10}
	c, s := pair(t, nil)
	fc := plan.Wrap(c)
	payload := make([]byte, 64<<10)
	go io.Copy(io.Discard, s)
	start := time.Now()
	if _, err := fc.Write(payload); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 150*time.Millisecond {
		t.Fatalf("64KiB moved in %v, want >= ~250ms at 256KiB/s", d)
	}
}

func TestPartialWriteTearsConnection(t *testing.T) {
	plan := Plan{Seed: 42, PartialWriteProb: 1}
	c, s := pair(t, nil)
	fc := plan.Wrap(c)
	msg := make([]byte, 1024)
	n, err := fc.Write(msg)
	if !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("want ErrInjectedReset, got n=%d err=%v", n, err)
	}
	if n <= 0 || n >= len(msg) {
		t.Fatalf("partial write delivered %d of %d bytes, want a strict prefix", n, len(msg))
	}
	// The peer sees exactly the prefix, then EOF/reset.
	got, _ := io.ReadAll(s)
	if len(got) != n {
		t.Fatalf("peer received %d bytes, sender delivered %d", len(got), n)
	}
	if pw := plan.PartialWrites.Load(); pw != 1 {
		t.Fatalf("partial write counter = %d, want 1", pw)
	}
}

func TestTruncationLiesAboutSuccess(t *testing.T) {
	plan := Plan{Seed: 7, TruncateProb: 1}
	c, s := pair(t, nil)
	fc := plan.Wrap(c)
	msg := make([]byte, 512)
	n, err := fc.Write(msg)
	if err != nil || n != len(msg) {
		t.Fatalf("truncating write should report full success, got n=%d err=%v", n, err)
	}
	fc.Close()
	got, _ := io.ReadAll(s)
	if len(got) >= len(msg) {
		t.Fatalf("peer received %d bytes, want fewer than the %d sent", len(got), len(msg))
	}
}

func TestInjectedReset(t *testing.T) {
	plan := Plan{Seed: 3, ResetReadProb: 1}
	c, _ := pair(t, nil)
	fc := plan.Wrap(c)
	_, err := fc.Read(make([]byte, 1))
	if !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("want ErrInjectedReset, got %v", err)
	}
	var ne net.Error
	if !errors.As(err, &ne) || ne.Timeout() {
		t.Fatalf("injected reset must be a non-timeout net.Error, got %#v", err)
	}
	// Subsequent ops fail fast.
	if _, err := fc.Write([]byte("x")); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("post-reset write: want ErrInjectedReset, got %v", err)
	}
}

// TestScheduledKill: the kill fires once the plan's clock reaches it,
// and a connection closed first leaves no timer behind.
func TestScheduledKill(t *testing.T) {
	clk := simclock.NewVirtual(time.Time{})
	plan := Plan{Seed: 9, KillAfter: 20 * time.Millisecond, Clock: clk}
	c, _ := pair(t, clk)
	fc := plan.Wrap(c)
	read := make(chan error, 1)
	go func() {
		_, err := fc.Read(make([]byte, 1)) // blocks until the kill fires
		read <- err
	}()
	clk.Advance(19 * time.Millisecond)
	select {
	case err := <-read:
		t.Fatalf("read ended (%v) 19ms into a 20ms kill", err)
	case <-time.After(20 * time.Millisecond):
	}
	clk.Advance(time.Millisecond)
	if err := <-read; !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("want ErrInjectedReset after kill, got %v", err)
	}
	if k := plan.Kills.Load(); k != 1 {
		t.Fatalf("kill counter = %d, want 1", k)
	}

	c2, _ := pair(t, clk)
	plan.Wrap(c2).Close()
	waitForWaiters(t, clk, 0)
	clk.Advance(time.Second)
	if k := plan.Kills.Load(); k != 1 {
		t.Fatalf("kill counter = %d after a closed connection's kill came due, want 1", k)
	}
}

func TestDeterministicFaultSchedule(t *testing.T) {
	// Two identical plans driving identical traffic make identical
	// fault decisions — the property chaos tests rely on.
	run := func(seed int64) []int {
		plan := Plan{Seed: seed, PartialWriteProb: 0.3, TruncateProb: 0.2}
		c, s := pair(t, nil)
		go io.Copy(io.Discard, s)
		fc := plan.Wrap(c)
		// Record the delivered byte count per op: the tear position of a
		// partial write is seed-dependent, so schedules fingerprint the
		// seed.
		var outcomes []int
		for i := 0; i < 32; i++ {
			n, err := fc.Write(make([]byte, 4096))
			outcomes = append(outcomes, n)
			if err != nil {
				return outcomes
			}
		}
		return outcomes
	}
	a, b := run(11), run(11)
	if len(a) != len(b) {
		t.Fatalf("runs diverged in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at op %d: %d vs %d", i, a[i], b[i])
		}
	}
	if c := run(12); len(c) == len(a) && func() bool {
		for i := range a {
			if a[i] != c[i] {
				return false
			}
		}
		return true
	}() {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

func TestSlowLinkThrottlesDrawnConnections(t *testing.T) {
	// With probability 1 every connection draws a cap in
	// [ceil/2, ceil]; 32 KiB at <= 128 KiB/s takes >= 250ms.
	plan := Plan{Seed: 7, SlowLinkProb: 1, SlowLinkBytesPerSecond: 128 << 10}
	c, s := pair(t, nil)
	fc := plan.Wrap(c)
	if got := fc.(*Conn).byteRate; got < 64<<10 || got > 128<<10 {
		t.Fatalf("drawn byte rate %d outside [%d, %d]", got, 64<<10, 128<<10)
	}
	go io.Copy(io.Discard, s)
	start := time.Now()
	if _, err := fc.Write(make([]byte, 32<<10)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 200*time.Millisecond {
		t.Fatalf("32KiB moved in %v, want >= ~250ms on a <=128KiB/s slow link", d)
	}
	if n := plan.SlowLinks.Load(); n != 1 {
		t.Fatalf("slow-link counter = %d, want 1", n)
	}
}

func TestSlowLinkDeterministicAcrossPlans(t *testing.T) {
	// Two same-seed plans hand identical per-connection rates to the
	// same wrap sequence; a different seed diverges somewhere.
	rates := func(seed int64) []int {
		plan := Plan{Seed: seed, SlowLinkProb: 0.5, SlowLinkBytesPerSecond: 100_000}
		var out []int
		for i := 0; i < 16; i++ {
			c, s := pair(t, nil)
			fc := plan.Wrap(c)
			out = append(out, fc.(*Conn).byteRate)
			fc.Close()
			s.Close()
		}
		return out
	}
	a, b := rates(21), rates(21)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed plans diverged at conn %d: %d vs %d", i, a[i], b[i])
		}
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
	c := rates(22)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical slow-link draws")
	}
}

func TestSlowLinkTighterCapWins(t *testing.T) {
	// A plan-wide 512 KiB/s cap plus a guaranteed ~64-128 KiB/s slow
	// link: the slow link dominates.
	plan := Plan{Seed: 3, BytesPerSecond: 512 << 10, SlowLinkProb: 1, SlowLinkBytesPerSecond: 128 << 10}
	c, s := pair(t, nil)
	fc := plan.Wrap(c)
	go io.Copy(io.Discard, s)
	start := time.Now()
	if _, err := fc.Write(make([]byte, 32<<10)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 200*time.Millisecond {
		t.Fatalf("32KiB moved in %v under the looser plan cap, want the slow link to dominate", d)
	}
}
