// Package clock is the wall clock the store, its log, the circuit breaker
// and the backend retry read time through. Wall is the time package; Fake
// stands still until a test advances it, so a test of a deadline steps the
// clock to the deadline instead of sleeping past it.
//
// It is wall time only. The versions and timestamps that order a key's
// updates come from the store's loosely synchronized per-worker clocks
// (§5.1), which count, and never read this one.
package clock

import (
	"slices"
	"sync"
	"time"
)

// Clock reads the time and makes timers.
type Clock interface {
	Now() time.Time
	NewTimer(d time.Duration) Timer
	NewTicker(d time.Duration) Ticker
}

// Timer delivers its deadline on C once, as a time.Timer does.
type Timer interface {
	C() <-chan time.Time
	Stop() bool
}

// Ticker delivers a tick on C every period, dropping the ticks a slow
// receiver misses, as a time.Ticker does.
type Ticker interface {
	C() <-chan time.Time
	Stop()
}

// Wall is the real clock: the time package.
type Wall struct{}

func (Wall) Now() time.Time                   { return time.Now() }
func (Wall) NewTimer(d time.Duration) Timer   { return wallTimer{time.NewTimer(d)} }
func (Wall) NewTicker(d time.Duration) Ticker { return wallTicker{time.NewTicker(d)} }

type wallTimer struct{ t *time.Timer }

func (w wallTimer) C() <-chan time.Time { return w.t.C }
func (w wallTimer) Stop() bool          { return w.t.Stop() }

type wallTicker struct{ t *time.Ticker }

func (w wallTicker) C() <-chan time.Time { return w.t.C }
func (w wallTicker) Stop()               { w.t.Stop() }

// Fake is a clock that moves only when Advance moves it. Its timers and
// tickers fire from Advance, each at its own deadline. All methods are safe
// for concurrent use.
type Fake struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*fakeTimer // pending timers and tickers
}

// NewFake returns a fake clock that reads a fixed instant, 2023-11-14
// 22:13:20 UTC (unix second 1.7e9), until advanced.
func NewFake() *Fake { return &Fake{now: time.Unix(1_700_000_000, 0)} }

// Now returns the fake time.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// NewTimer returns a timer that fires once the clock reaches Now()+d; one
// with d <= 0 has fired already.
func (f *Fake) NewTimer(d time.Duration) Timer { return f.add(d, 0) }

// NewTicker returns a ticker that fires every d of fake time. It panics if
// d <= 0, as time.NewTicker does.
func (f *Fake) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("clock: non-positive interval for NewTicker")
	}
	return fakeTicker{f.add(d, d)}
}

func (f *Fake) add(d, period time.Duration) *fakeTimer {
	t := &fakeTimer{f: f, c: make(chan time.Time, 1), period: period}
	f.mu.Lock()
	defer f.mu.Unlock()
	t.when = f.now.Add(d)
	if d <= 0 {
		t.c <- f.now
		return t
	}
	f.waiters = append(f.waiters, t)
	return t
}

// Advance moves the clock forward by d. Every timer and ticker that falls
// due fires, in deadline order, its deadline the time it delivers. Like a
// real ticker whose receiver slept, a ticker fires once per Advance however
// many of its periods d spans, and its next deadline is the first one past
// the new time.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
	var due []*fakeTimer
	f.waiters = slices.DeleteFunc(f.waiters, func(t *fakeTimer) bool {
		if t.when.After(f.now) {
			return false
		}
		due = append(due, t)
		return t.period == 0
	})
	slices.SortStableFunc(due, func(a, b *fakeTimer) int { return a.when.Compare(b.when) })
	for _, t := range due {
		select {
		case t.c <- t.when:
		default: // the last tick is still unread: drop this one
		}
		if t.period > 0 {
			t.when = t.when.Add((f.now.Sub(t.when)/t.period + 1) * t.period)
		}
	}
}

// Waiters reports how many timers and tickers are pending, so a test can
// wait for a goroutine to arm its timer before advancing past it.
func (f *Fake) Waiters() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.waiters)
}

// fakeTimer is a Fake's timer (period 0) or ticker.
type fakeTimer struct {
	f      *Fake
	c      chan time.Time
	when   time.Time // the next deadline; guarded by f.mu
	period time.Duration
}

func (t *fakeTimer) C() <-chan time.Time { return t.c }

// Stop removes the timer from its clock and reports whether it was pending.
func (t *fakeTimer) Stop() bool {
	t.f.mu.Lock()
	defer t.f.mu.Unlock()
	n := len(t.f.waiters)
	t.f.waiters = slices.DeleteFunc(t.f.waiters, func(w *fakeTimer) bool { return w == t })
	return len(t.f.waiters) < n
}

// fakeTicker is a fakeTimer with a period; its Stop returns nothing.
type fakeTicker struct{ *fakeTimer }

func (t fakeTicker) Stop() { t.fakeTimer.Stop() }
