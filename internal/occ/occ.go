// Package occ is the node version word of the paper's Figure 3, with
// Figure 4's stableversion, lock and unlock: the optimistic concurrency
// control that Masstree's nodes (internal/core) and the B-tree baseline
// (internal/baseline/btree) both run. It is the only code that changes the
// word's bits; the word itself is unexported, so a node's owner can read it
// and call these helpers but cannot store to it.
package occ

import (
	"runtime"
	"sync/atomic"
)

// Version word layout (paper Figure 3). A node's version is a single 64-bit
// word manipulated with atomic operations:
//
//	bit 0   locked     — claimed by update or insert
//	bit 1   inserting  — dirty: an insert is creating intermediate state
//	bit 2   splitting  — dirty: a split/remove is creating intermediate state
//	bit 3   deleted    — node has been removed from the tree
//	bit 4   isroot     — node is the root of some B+-tree (trie layer)
//	bit 5   isborder   — node is a border (leaf) node, not interior
//	6..21   vinsert    — counter incremented after each insert
//	22..63  vsplit     — counter incremented after each split
//
// Readers snapshot a node's version before reading its contents and compare
// after; a dirty or changed version forces a retry (§4.6). The paper notes a
// 32-bit counter could wrap if a reader blocked for 2^22 inserts; we use
// 64 bits, which never wraps in practice.
//
// The exported bits are the ones a constructor passes to Init.
const (
	LockBit      uint64 = 1 << 0
	insertingBit uint64 = 1 << 1
	SplittingBit uint64 = 1 << 2
	deletedBit   uint64 = 1 << 3
	RootBit      uint64 = 1 << 4
	BorderBit    uint64 = 1 << 5

	dirtyMask = insertingBit | SplittingBit

	vinsertShift        = 6
	vinsertBits         = 16
	vinsertMask  uint64 = ((1 << vinsertBits) - 1) << vinsertShift
	vinsertOne   uint64 = 1 << vinsertShift

	vsplitShift        = vinsertShift + vinsertBits
	vsplitOne   uint64 = 1 << vsplitShift
	vsplitMask  uint64 = ^uint64(0) &^ (vsplitOne - 1)
)

// Locked, Dirty, Deleted, Root and Border read one state of a snapshot.
func Locked(v uint64) bool  { return v&LockBit != 0 }
func Dirty(v uint64) bool   { return v&dirtyMask != 0 }
func Deleted(v uint64) bool { return v&deletedBit != 0 }
func Root(v uint64) bool    { return v&RootBit != 0 }
func Border(v uint64) bool  { return v&BorderBit != 0 }

// VSplit extracts the split counter.
func VSplit(v uint64) uint64 { return v & vsplitMask }

// Changed reports whether two version snapshots differ in anything but the
// lock bit. This is the "n.version ⊕ v > locked" test of Figures 6 and 7.
func Changed(v1, v2 uint64) bool { return (v1^v2)&^LockBit != 0 }

// Version is a node's atomic version word.
type Version struct {
	v atomic.Uint64
}

// Init writes a freshly allocated node's initial version word. The node is
// private to its constructor, so this is the one write that needs no lock.
func (h *Version) Init(bits uint64) { h.v.Store(bits) }

// Load returns the current word.
func (h *Version) Load() uint64 { return h.v.Load() }

// Stable spins until the version is not dirty and returns the snapshot
// (Figure 4, stableversion). Spinning is bounded by the shortness of the
// writer's critical section; we yield the processor periodically so a
// descheduled writer can finish.
func (h *Version) Stable() uint64 {
	for spins := 0; ; spins++ {
		v := h.v.Load()
		if !Dirty(v) {
			return v
		}
		if spins%128 == 127 {
			runtime.Gosched()
		}
	}
}

// Lock acquires the node's spinlock (Figure 4). The caller must eventually
// call Unlock. Locking a deleted node succeeds; callers must check the
// deleted bit after acquiring the lock.
func (h *Version) Lock() {
	for spins := 0; ; spins++ {
		v := h.v.Load()
		if !Locked(v) && h.v.CompareAndSwap(v, v|LockBit) {
			return
		}
		if spins%128 == 127 {
			runtime.Gosched()
		}
	}
}

// TryLock attempts a single lock acquisition and reports success.
func (h *Version) TryLock() bool {
	v := h.v.Load()
	return !Locked(v) && h.v.CompareAndSwap(v, v|LockBit)
}

// Unlock releases the lock, incrementing vsplit if the splitting bit is set,
// else vinsert if the inserting bit is set, and clearing all three bits in a
// single atomic store (Figure 4: "implemented with one memory write").
// The caller must hold the lock.
func (h *Version) Unlock() {
	v := h.v.Load()
	if v&SplittingBit != 0 {
		v += vsplitOne // top field: overflow wraps harmlessly
	} else if v&insertingBit != 0 {
		v = (v &^ vinsertMask) | ((v + vinsertOne) & vinsertMask)
	}
	v &^= LockBit | insertingBit | SplittingBit
	h.v.Store(v)
}

// The Mark* helpers and ClearRoot set state bits; the caller must hold the
// node lock.

//masstree:locked h
func (h *Version) MarkInserting() { h.v.Store(h.v.Load() | insertingBit) }

//masstree:locked h
func (h *Version) MarkSplitting() { h.v.Store(h.v.Load() | SplittingBit) }

//masstree:locked h
func (h *Version) MarkDeleted() { h.v.Store(h.v.Load() | deletedBit) }

//masstree:locked h
func (h *Version) ClearRoot() { h.v.Store(h.v.Load() &^ RootBit) }
