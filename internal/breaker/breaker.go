// Package breaker is the circuit breaker both fault-tolerance tiers share:
// the read-through backend decorator (internal/backend) and the cluster
// client's per-node health (internal/cluster).
//
// The policy is the classic one. Threshold consecutive failures open the
// circuit; while open, calls fail fast without touching the protected
// resource; once the cool-down lapses exactly one probe is admitted, and
// its outcome alone decides recovery — success closes the circuit, failure
// reopens it for another cool-down. Outcomes of calls that were not the
// probe and arrive while the circuit is open or half-open (stragglers
// admitted before the trip) change nothing.
package breaker

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
)

// State is a breaker's position. The numbering is part of the stats
// surface: breaker_state and node<i>_state report it as 0/1/2.
type State int32

const (
	Closed   State = 0 // calls pass; failures count toward the threshold
	Open     State = 1 // calls fail fast until the cool-down lapses
	HalfOpen State = 2 // one probe is (or may be) in flight; others fail fast
)

// Breaker is one circuit. The zero value is not usable; build with New.
// All methods are safe for concurrent use.
type Breaker struct {
	threshold int
	coolDown  time.Duration
	wall      clock.Clock

	// state is written under mu but read without it, so the common case —
	// a closed circuit — costs callers one atomic load.
	state atomic.Int32

	mu       sync.Mutex
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the circuit last left Closed
	until    time.Time // while open, the earliest probe
	probing  bool      // the half-open probe slot is taken
	opens    uint64    // transitions into Open, failed probes included
}

// New builds a closed breaker that opens after threshold consecutive
// failures (threshold <= 0 never opens) and admits a probe coolDown after
// each opening, as wall tells the time.
func New(threshold int, coolDown time.Duration, wall clock.Clock) *Breaker {
	return &Breaker{threshold: threshold, coolDown: coolDown, wall: wall}
}

// Allow asks whether a call may proceed. ok false means fail fast. probe
// reports that the call holds the half-open probe slot: its outcome must
// come back through Record, or the slot through Abort.
func (b *Breaker) Allow() (probe, ok bool) {
	if State(b.state.Load()) == Closed {
		return false, true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch State(b.state.Load()) {
	case Closed:
		return false, true
	case Open:
		if b.wall.Now().Before(b.until) {
			return false, false
		}
		b.state.Store(int32(HalfOpen))
	}
	if b.probing {
		return false, false
	}
	b.probing = true
	return true, true
}

// Record feeds one call's outcome into the state machine and reports
// whether this outcome opened the circuit.
func (b *Breaker) Record(probe, success bool) (opened bool) {
	if b.threshold <= 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
	}
	switch State(b.state.Load()) {
	case Closed:
		if success {
			b.fails = 0
			return false
		}
		b.fails++
		if b.fails < b.threshold {
			return false
		}
		b.openedAt = b.wall.Now()
	case HalfOpen:
		if !probe {
			return false
		}
		if success {
			b.state.Store(int32(Closed))
			return false
		}
	default: // open: a straggler's outcome says nothing new
		return false
	}
	b.state.Store(int32(Open))
	b.until = b.wall.Now().Add(b.coolDown)
	b.fails = 0
	b.opens++
	return true
}

// Abort hands a probe slot back without judging the resource: the call
// never produced a health signal (it was canceled before or during its
// attempt). The next Allow may claim the slot again.
func (b *Breaker) Abort(probe bool) {
	if !probe {
		return
	}
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// State reports the breaker's position. An open breaker whose cool-down has
// lapsed reads as half-open: the next Allow will admit a probe, and
// observers (stale-if-error policy, stats, the probe loop) care about that
// readiness, not the stale label.
func (b *Breaker) State() State {
	s := State(b.state.Load())
	if s != Open {
		return s
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if State(b.state.Load()) == Open && !b.wall.Now().Before(b.until) {
		return HalfOpen
	}
	return State(b.state.Load())
}

// Opens counts transitions into Open, a failed probe's reopening included.
func (b *Breaker) Opens() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}

// OpenedAt is when the circuit last left Closed — the start of the current
// outage while the breaker is not Closed. Zero if it never opened.
func (b *Breaker) OpenedAt() time.Time {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.openedAt
}
