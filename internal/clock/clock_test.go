package clock

import (
	"testing"
	"time"
)

// fired returns what c holds, if anything, without waiting.
func fired(c <-chan time.Time) (time.Time, bool) {
	select {
	case at := <-c:
		return at, true
	default:
		return time.Time{}, false
	}
}

// TestFakeTimers: each timer fires at its own deadline and not 1 ns before,
// delivering the deadline; a stopped timer never fires; one armed for no
// time at all has fired already.
func TestFakeTimers(t *testing.T) {
	f := NewFake()
	start := f.Now()
	late, early, stopped := f.NewTimer(3*time.Second), f.NewTimer(time.Second), f.NewTimer(2*time.Second)
	if !stopped.Stop() || stopped.Stop() {
		t.Fatal("Stop reports a pending timer once, then not")
	}
	if f.Waiters() != 2 {
		t.Fatalf("Waiters = %d, want 2", f.Waiters())
	}
	f.Advance(time.Second - 1)
	if _, ok := fired(early.C()); ok {
		t.Fatal("a timer fired 1 ns before its deadline")
	}
	f.Advance(3 * time.Second)
	for _, c := range []struct {
		timer Timer
		want  time.Time
	}{{early, start.Add(time.Second)}, {late, start.Add(3 * time.Second)}} {
		if at, ok := fired(c.timer.C()); !ok || !at.Equal(c.want) {
			t.Fatalf("timer delivered %v, %v; want its deadline %v", at, ok, c.want)
		}
	}
	if _, ok := fired(stopped.C()); ok {
		t.Fatal("a stopped timer fired")
	}
	if f.Waiters() != 0 || early.Stop() {
		t.Fatal("a fired timer is still pending")
	}
	if !f.Now().Equal(start.Add(4*time.Second - 1)) {
		t.Fatalf("Now = %v after advancing 4s-1ns", f.Now())
	}
	if _, ok := fired(f.NewTimer(0).C()); !ok {
		t.Fatal("a timer for no time has not fired")
	}
}

// TestFakeTicker: a ticker fires at each period's end, once per Advance
// however many periods it spans (the ticks a sleeping receiver misses are
// dropped), and its next tick is the first period end past the new time.
func TestFakeTicker(t *testing.T) {
	f := NewFake()
	start := f.Now()
	tk := f.NewTicker(10 * time.Millisecond)
	f.Advance(25 * time.Millisecond)
	if at, ok := fired(tk.C()); !ok || !at.Equal(start.Add(10*time.Millisecond)) {
		t.Fatalf("first tick %v, %v; want at 10ms", at, ok)
	}
	if _, ok := fired(tk.C()); ok {
		t.Fatal("one Advance delivered two ticks")
	}
	f.Advance(5*time.Millisecond - 1)
	if _, ok := fired(tk.C()); ok {
		t.Fatal("ticked 1 ns before 30ms")
	}
	f.Advance(1)
	if at, ok := fired(tk.C()); !ok || !at.Equal(start.Add(30*time.Millisecond)) {
		t.Fatalf("second tick %v, %v; want at 30ms", at, ok)
	}
	tk.Stop()
	f.Advance(time.Second)
	if _, ok := fired(tk.C()); ok || f.Waiters() != 0 {
		t.Fatal("a stopped ticker ticked")
	}
}

// TestWall: the real clock's timer and ticker deliver.
func TestWall(t *testing.T) {
	var c Clock = Wall{}
	before := c.Now()
	tm := c.NewTimer(time.Millisecond)
	if at := <-tm.C(); at.Before(before) {
		t.Fatalf("timer delivered %v, before %v", at, before)
	}
	tk := c.NewTicker(time.Millisecond)
	<-tk.C()
	tk.Stop()
}
