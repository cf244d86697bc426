// Package simclock abstracts the passage of time so time-dependent
// components — the collector's keepalive and session-timeout paths, the
// store WAL's interval-sync ticker — can run either on the real clock
// (production, the default everywhere) or on a deterministic virtual
// clock that only moves when a test advances it (internal/simtest).
//
// The interface is deliberately the minimal slice of package time those
// components consume: Now/Since for timestamps and durations, and
// tickers/timers for periodic and one-shot wakeups. A Virtual clock
// fires due timers synchronously inside Advance, in deadline order with
// creation order as the tiebreak, so a simulation that advances the
// clock sees exactly the same wakeup sequence on every run.
package simclock

import (
	"sync"
	"time"
)

// Clock tells time and schedules wakeups. Implementations must be safe
// for concurrent use.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Since returns the time elapsed on this clock since t.
	Since(t time.Time) time.Duration
	// NewTicker returns a ticker that delivers ticks every d.
	NewTicker(d time.Duration) Ticker
	// NewTimer returns a timer that fires once after d.
	NewTimer(d time.Duration) Timer
}

// Ticker is the clock-agnostic slice of time.Ticker.
type Ticker interface {
	// C returns the channel ticks are delivered on.
	C() <-chan time.Time
	// Stop turns the ticker off. It does not close C.
	Stop()
}

// Timer is the clock-agnostic slice of time.Timer.
type Timer interface {
	// C returns the channel the expiry is delivered on.
	C() <-chan time.Time
	// Stop prevents the timer from firing; it reports whether the call
	// stopped the timer before it fired.
	Stop() bool
}

// systemClock is the real clock, backed by package time.
type systemClock struct{}

func (systemClock) Now() time.Time                   { return time.Now() }
func (systemClock) Since(t time.Time) time.Duration  { return time.Since(t) }
func (systemClock) NewTicker(d time.Duration) Ticker { return systemTicker{time.NewTicker(d)} }
func (systemClock) NewTimer(d time.Duration) Timer   { return systemTimer{time.NewTimer(d)} }

type systemTicker struct{ t *time.Ticker }

func (s systemTicker) C() <-chan time.Time { return s.t.C }
func (s systemTicker) Stop()               { s.t.Stop() }

type systemTimer struct{ t *time.Timer }

func (s systemTimer) C() <-chan time.Time { return s.t.C }
func (s systemTimer) Stop() bool          { return s.t.Stop() }

// Or returns c, or the real clock when c is nil — the idiom every
// component uses to default its optional Clock field.
func Or(c Clock) Clock {
	if c == nil {
		return systemClock{}
	}
	return c
}

// Virtual is a deterministic clock: Now returns a fixed instant until
// Advance moves it, and timers/tickers fire synchronously inside
// Advance, in deadline order. The zero value is not usable; construct
// with NewVirtual.
type Virtual struct {
	mu   sync.Mutex
	now  time.Time
	seq  uint64 // creation order, the deadline tiebreak
	wait []*virtualWaiter
}

// virtualWaiter is one pending wakeup: a timer (period 0, fires once)
// or a ticker (re-arms every period).
type virtualWaiter struct {
	clock    *Virtual
	deadline time.Time
	period   time.Duration
	seq      uint64
	ch       chan time.Time
	stopped  bool
}

// NewVirtual returns a virtual clock reading start. A zero start uses
// an arbitrary fixed epoch, so tests that never care about absolute
// time stay deterministic by default.
func NewVirtual(start time.Time) *Virtual {
	if start.IsZero() {
		start = time.Date(2016, time.March, 29, 0, 0, 0, 0, time.UTC)
	}
	return &Virtual{now: start}
}

// Now returns the virtual time.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Since returns the virtual time elapsed since t.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// NewTicker schedules a periodic wakeup every d of virtual time.
func (v *Virtual) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("simclock: non-positive ticker period")
	}
	return virtualTicker{v.addWaiter(d, d)}
}

// virtualTicker adapts a waiter to the Ticker interface (whose Stop
// returns nothing).
type virtualTicker struct{ w *virtualWaiter }

func (t virtualTicker) C() <-chan time.Time { return t.w.ch }
func (t virtualTicker) Stop()               { t.w.Stop() }

// NewTimer schedules a one-shot wakeup after d of virtual time. A
// non-positive d fires on the next Advance (of any amount), matching
// the "already due" semantics of a real timer closely enough for the
// components this package serves.
func (v *Virtual) NewTimer(d time.Duration) Timer {
	return v.addWaiter(d, 0)
}

func (v *Virtual) addWaiter(d, period time.Duration) *virtualWaiter {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.seq++
	w := &virtualWaiter{
		clock:    v,
		deadline: v.now.Add(d),
		period:   period,
		seq:      v.seq,
		// Buffered like the real timer channel: a fire never blocks
		// Advance on a receiver that is not ready, it just coalesces.
		ch: make(chan time.Time, 1),
	}
	v.wait = append(v.wait, w)
	return w
}

func (w *virtualWaiter) C() <-chan time.Time { return w.ch }

func (w *virtualWaiter) Stop() bool {
	v := w.clock
	v.mu.Lock()
	defer v.mu.Unlock()
	was := !w.stopped
	w.stopped = true
	for i, o := range v.wait {
		if o == w {
			v.wait = append(v.wait[:i], v.wait[i+1:]...)
			break
		}
	}
	return was
}

// Advance moves the clock forward by d, firing every timer and ticker
// whose deadline falls inside the window, in deadline order (creation
// order breaks ties). Tick delivery is non-blocking — a receiver that
// has not drained its channel coalesces ticks, exactly like a real
// time.Ticker.
func (v *Virtual) Advance(d time.Duration) {
	if d < 0 {
		panic("simclock: negative advance")
	}
	v.mu.Lock()
	target := v.now.Add(d)
	for {
		w := v.nextDueLocked(target)
		if w == nil {
			break
		}
		if w.deadline.After(v.now) {
			v.now = w.deadline
		}
		at := v.now
		if w.period > 0 {
			w.deadline = w.deadline.Add(w.period)
		} else {
			w.stopped = true
			v.removeLocked(w)
		}
		select {
		case w.ch <- at:
		default:
		}
	}
	v.now = target
	v.mu.Unlock()
}

// nextDueLocked returns the unstopped waiter with the earliest deadline
// not after target, preferring lower sequence numbers on equal
// deadlines; nil when none is due.
func (v *Virtual) nextDueLocked(target time.Time) *virtualWaiter {
	var best *virtualWaiter
	for _, w := range v.wait {
		if w.stopped || w.deadline.After(target) {
			continue
		}
		if best == nil || w.deadline.Before(best.deadline) ||
			(w.deadline.Equal(best.deadline) && w.seq < best.seq) {
			best = w
		}
	}
	return best
}

func (v *Virtual) removeLocked(w *virtualWaiter) {
	for i, o := range v.wait {
		if o == w {
			v.wait = append(v.wait[:i], v.wait[i+1:]...)
			return
		}
	}
}

// Waiters returns the number of pending timers and tickers — a test
// hook for asserting components cleaned their wakeups up.
func (v *Virtual) Waiters() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.wait)
}
