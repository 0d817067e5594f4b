// Package epoch is what is left of the epoch manager the paper borrows from
// read-copy update (§4.6.1): handles that pin an epoch. It is kept only for
// the benchmark harness, which registers a handle on the live store and
// times one Enter/Exit pair (its epoch.pin_ns row); no store call pins a
// handle and nothing is retired through it.
//
// The paper pins epochs so that its allocator frees a removed node, a
// replaced value or an emptied layer only after every reader that might
// hold it has moved on. Here Go's garbage collector owns every one of those
// lifetimes, and a reader caught in a layer collapse finds the child layer
// marked deleted under the collapse's locks and retries (core's
// collapseLayer). The package goes once the benchmark stops calling it.
package epoch

import "sync/atomic"

// Manager holds the global epoch handles pin. The zero Manager is ready to
// use.
type Manager struct {
	global atomic.Uint64 // current global epoch; 0 means epoch 1 not yet begun
}

// Handle is one participant's registration. A Handle may be used by one
// goroutine at a time.
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
	return &Handle{m: m}
}

// Unregister releases a handle. Nothing walks the handles, so it has
// nothing to do; it stays for the benchmark harness's calls.
func (m *Manager) Unregister(h *Handle) {}

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
