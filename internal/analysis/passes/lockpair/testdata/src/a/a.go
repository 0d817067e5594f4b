// Package a is the lockpair golden fixture: a miniature border-node world
// with the same lock-discovery conventions as internal/core (a header type
// embedding occ.Version, node structs holding it in a field named h),
// exercising every diagnostic plus the clean idioms around each.
package a

import (
	"errors"
	"sync"

	"repro/internal/occ"
)

var errFailed = errors.New("failed")

type nodeHeader struct {
	occ.Version
}

type node struct {
	h    nodeHeader
	next *node
	val  int
}

// --- lock / unlock pairing ---

func balanced(n *node) { // clean: one lock, one unlock
	n.h.Lock()
	n.val++
	n.h.Unlock()
}

func double(n *node) {
	n.h.Lock()
	n.h.Lock() // want `double lock of n\.h`
	n.h.Unlock()
}

func unheld(n *node) {
	n.h.Unlock() // want `unlock of n\.h, which is not held`
}

func deferred(n *node) { // clean: deferred unlock credited at every exit
	n.h.Lock()
	defer n.h.Unlock()
	n.val++
}

// errPath drops its lock on the error return: the seeded missed-unlock bug.
func errPath(n *node, fail bool) error {
	n.h.Lock()
	if fail {
		return errFailed // want `lock n\.h is not released on this return path`
	}
	n.h.Unlock()
	return nil
}

// --- hand-over-hand transfer ---

func walk(n *node) { // clean: next.h renames to n.h through n = next
	n.h.Lock()
	for n.next != nil {
		next := n.next
		next.h.Lock()
		n.h.Unlock()
		n = next
	}
	n.h.Unlock()
}

func tryWalk(n *node) { // clean: TryLock acquires only on its true edge
	if n.h.TryLock() {
		n.h.Unlock()
	}
}

// missedUnlock returns with the version word still locked.
func missedUnlock(v *occ.Version, fail bool) {
	v.Lock()
	if fail {
		return // want `lock v is not released on this return path`
	}
	v.Unlock()
}

func stableHeld(n *node) {
	n.h.Lock()
	_ = n.h.Stable() // want `Stable on n\.h, which is held`
	n.h.Unlock()
	_ = n.h.Stable() // clean: an unheld node's Stable is a reader's
}

// --- a sync.Mutex is not a node lock ---

type tree struct {
	mu   sync.Mutex
	root *node
}

type registry struct {
	sync.Mutex
	n int
}

func maintain(t *tree) { // clean: a mutex pair is not tracked
	t.mu.Lock()
	t.root = nil
	t.mu.Unlock()
}

func handOff(r *registry) { // clean: not tracked, so a held mutex may be handed to the caller
	r.Lock()
	r.n++
}

// --- masstree:locked / masstree:unlocks contracts ---

// withLock mutates a node its caller locked.
//
//masstree:locked n
func withLock(n *node) {
	n.val++
}

// release consumes the caller's lock.
//
//masstree:unlocks n
func release(n *node) {
	n.h.Unlock()
}

func useContracts(n *node) { // clean: contracts satisfied
	n.h.Lock()
	withLock(n)
	release(n)
}

func badContracts(n *node) {
	withLock(n) // want `call to withLock requires n\.h held \(masstree:locked\)`
	release(n)  // want `call to release releases n\.h, which is not held`
}

// dropsContract violates its own contract: the lock must survive the call.
//
//masstree:locked n
func dropsContract(n *node) {
	n.h.Unlock()
} // want `n\.h must be held at return \(masstree:locked\)`

// badName names a contract param that does not exist.
//
//masstree:locked q
func badName(n *node) { // want `masstree: contract names "q", which is not a lockable parameter`
	_ = n
}

// --- masstree:returns-locked ---

// newLocked returns a freshly locked node.
//
//masstree:returns-locked
func newLocked() *node {
	n := alloc()
	n.h.Lock()
	return n
}

func useLocked() { // clean: nil-check resolves the conditional lock
	n := newLocked()
	if n != nil {
		n.h.Unlock()
	}
}

func leak() {
	newLocked() // want `result of newLocked \(masstree:returns-locked\) discarded; the returned lock leaks`
}

// nilLeak returns nil still holding the node it locked.
//
//masstree:returns-locked
func nilLeak(n *node) *node {
	n.h.Lock()
	if n.val < 0 {
		return nil // want `lock n\.h is not released on this return path`
	}
	return n
}

// recheckLeak locks its candidate and returns nil when the re-check under
// the lock fails, without unlocking: lockHint's shape.
//
//masstree:returns-locked
func recheckLeak(n *node) *node {
	if n == nil {
		return nil // clean: nothing is locked yet
	}
	n.h.Lock()
	if n.next != nil {
		return nil // want `lock n\.h is not released on this return path`
	}
	return n
}

// retryLeak re-reads its candidate without unlocking the one that failed
// the re-check: lockParent's shape.
//
//masstree:returns-locked
func retryLeak(n *node) *node {
	for {
		p := n.next // want `lock p\.h is lost: p is assigned while it is held`
		if p == nil {
			return nil
		}
		p.h.Lock()
		if n.next == p {
			return p
		}
	}
}

// extraLock hands its result to the caller and keeps a second lock.
//
//masstree:returns-locked
func extraLock(n *node) *node {
	n.h.Lock()
	next := n.next
	next.h.Lock()
	return next // want `lock n\.h is not released on this return path`
}

// unlockedResult returns a node it does not hold.
//
//masstree:returns-locked
func unlockedResult(n *node) *node {
	n.h.Lock()
	n.h.Unlock()
	return n // want `result n\.h is returned unlocked \(masstree:returns-locked\)`
}

// --- statement-level masstree:acquires / masstree:releases ---

func alloc() *node { return &node{} }

func constructorLocked() { // clean: the directive models the constructor's lock bit
	n := alloc() //masstree:acquires n.h
	n.h.Unlock()
}

func stash(n *node) {}

var parked *node

func park(n *node) { // clean: the directive models a transfer the analyzer cannot see
	n.h.Lock()
	stash(n) //masstree:releases n.h
}

// --- suppression ---

func suppressed(n *node) { // clean: the allow covers the unbalanced unlock
	n.h.Unlock() //lint:allow lockpair fixture exercising the suppression path
}

// --- state explosion backstop ---

func use(ns ...*node) {}

func explode() { // want `lock state explosion; function not analyzed`
	v1 := newLocked()
	v2 := newLocked()
	v3 := newLocked()
	v4 := newLocked()
	v5 := newLocked()
	v6 := newLocked()
	v7 := newLocked()
	v8 := newLocked()
	v9 := newLocked()
	use(v1, v2, v3, v4, v5, v6, v7, v8, v9)
}
