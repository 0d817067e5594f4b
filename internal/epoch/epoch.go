// Package epoch implements the epoch manager the paper borrows from
// read-copy update (§4.6.1, citing Fraser's practical lock-freedom): handles
// that pin an epoch and callbacks deferred until every pin has moved on.
//
// A goroutine brackets its operations with Enter/Exit on its own Handle.
// Retire queues a callback; Advance moves the global epoch on once every
// pinned handle has seen the current one, and runs the callbacks retired two
// or more epochs back.
//
// In this repository kvstore sessions pin a handle around each operation,
// the store's maintenance loop pins one around its eviction and expiry
// passes, and one callback is ever retired: the maintenance loop's
// Tree.Maintain, which collapses emptied trie layers (§4.6.5). Nothing is
// freed through the manager. Removed nodes, replaced values, swapped twigs
// and rebuilt suffix bags are left to Go's garbage collector, which keeps
// each alive while any reader still holds it.
package epoch

import (
	"sync"
	"sync/atomic"
)

// Manager coordinates a global epoch among registered handles.
// The zero Manager is ready to use.
type Manager struct {
	global atomic.Uint64 // current global epoch; 0 means epoch 1 not yet begun

	mu      sync.Mutex
	handles []*Handle
	retired []retiree
}

type retiree struct {
	epoch uint64
	fn    func()
}

// Handle is one participant's registration. A Handle may be used by one
// goroutine at a time; each worker goroutine that reads shared structures
// should own one.
type Handle struct {
	m      *Manager
	local  atomic.Uint64 // epoch observed at Enter
	active atomic.Bool
}

func (m *Manager) epoch() uint64 {
	if e := m.global.Load(); e != 0 {
		return e
	}
	m.global.CompareAndSwap(0, 1)
	return m.global.Load()
}

// Register creates a new Handle attached to the manager.
func (m *Manager) Register() *Handle {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := &Handle{m: m}
	m.handles = append(m.handles, h)
	return h
}

// Unregister removes the handle from the manager. The handle must be
// quiescent (not between Enter and Exit).
func (m *Manager) Unregister(h *Handle) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, other := range m.handles {
		if other == h {
			m.handles = append(m.handles[:i], m.handles[i+1:]...)
			return
		}
	}
}

// Enter marks the handle active in the current global epoch. Must be paired
// with Exit.
func (h *Handle) Enter() {
	h.local.Store(h.m.epoch())
	h.active.Store(true)
}

// Exit marks the handle quiescent.
func (h *Handle) Exit() {
	h.active.Store(false)
}

// Retire schedules fn to run once every handle active now has exited its
// current critical section (concretely: after the global epoch has advanced
// twice past the current one). fn runs on a later Advance call's goroutine.
func (m *Manager) Retire(fn func()) {
	e := m.epoch()
	m.mu.Lock()
	m.retired = append(m.retired, retiree{epoch: e, fn: fn})
	m.mu.Unlock()
}

// Advance attempts to advance the global epoch: it succeeds only if every
// active handle has observed the current epoch. On success it runs all
// callbacks retired at least two epochs ago and reports true. On failure
// (a straggling reader pins the epoch) it reports false and runs nothing.
func (m *Manager) Advance() bool {
	m.mu.Lock()
	e := m.epoch()
	for _, h := range m.handles {
		if h.active.Load() && h.local.Load() < e {
			m.mu.Unlock()
			return false
		}
	}
	next := e + 1
	m.global.Store(next)
	// Callbacks retired in epochs <= next-2 can no longer be observed:
	// every active reader entered at epoch >= e = next-1.
	var ready []func()
	keep := m.retired[:0]
	for _, r := range m.retired {
		if r.epoch+2 <= next {
			ready = append(ready, r.fn)
		} else {
			keep = append(keep, r)
		}
	}
	m.retired = keep
	m.mu.Unlock()
	for _, fn := range ready {
		fn()
	}
	return true
}

// Barrier advances the epoch until all callbacks retired before the call
// have run, spinning past active readers. Intended for shutdown and tests;
// it blocks if a reader never exits.
func (m *Manager) Barrier() {
	for i := 0; i < 3; i++ {
		for !m.Advance() {
		}
	}
}

// Pending returns the number of retired callbacks not yet run.
func (m *Manager) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.retired)
}

// Epoch returns the current global epoch.
func (m *Manager) Epoch() uint64 { return m.global.Load() }
