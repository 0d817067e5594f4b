package core

import "runtime"

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
const (
	lockBit      uint64 = 1 << 0
	insertingBit uint64 = 1 << 1
	splittingBit uint64 = 1 << 2
	deletedBit   uint64 = 1 << 3
	rootBit      uint64 = 1 << 4
	borderBit    uint64 = 1 << 5

	dirtyMask = insertingBit | splittingBit

	vinsertShift        = 6
	vinsertBits         = 16
	vinsertMask  uint64 = ((1 << vinsertBits) - 1) << vinsertShift
	vinsertOne   uint64 = 1 << vinsertShift

	vsplitShift        = vinsertShift + vinsertBits
	vsplitOne   uint64 = 1 << vsplitShift
	vsplitMask  uint64 = ^uint64(0) &^ (vsplitOne - 1)
)

func isLocked(v uint64) bool  { return v&lockBit != 0 }
func isDirty(v uint64) bool   { return v&dirtyMask != 0 }
func isDeleted(v uint64) bool { return v&deletedBit != 0 }
func isRoot(v uint64) bool    { return v&rootBit != 0 }
func isBorder(v uint64) bool  { return v&borderBit != 0 }
func vsplit(v uint64) uint64  { return v & vsplitMask }

// changed reports whether two version snapshots differ in anything but the
// lock bit. This is the "n.version ⊕ v > locked" test of Figures 6 and 7.
func changed(v1, v2 uint64) bool { return (v1^v2)&^lockBit != 0 }

// stable spins until the version is not dirty and returns the snapshot
// (Figure 4, stableversion). Spinning is bounded by the shortness of the
// writer's critical section; we yield the processor periodically so a
// descheduled writer can finish.
func (h *nodeHeader) stable() uint64 {
	for spins := 0; ; spins++ {
		v := h.version.Load()
		if !isDirty(v) {
			return v
		}
		if spins%128 == 127 {
			runtime.Gosched()
		}
	}
}

// lock acquires the node's spinlock (Figure 4). The caller must eventually
// call unlock. Locking a deleted node succeeds; callers must check the
// deleted bit after acquiring the lock.
func (h *nodeHeader) lock() {
	for spins := 0; ; spins++ {
		v := h.version.Load()
		if !isLocked(v) && h.version.CompareAndSwap(v, v|lockBit) {
			return
		}
		if spins%128 == 127 {
			runtime.Gosched()
		}
	}
}

// tryLock attempts a single lock acquisition and reports success.
func (h *nodeHeader) tryLock() bool {
	v := h.version.Load()
	return !isLocked(v) && h.version.CompareAndSwap(v, v|lockBit)
}

// unlock releases the lock, incrementing vsplit if the splitting bit is set,
// else vinsert if the inserting bit is set, and clearing all three bits in a
// single atomic store (Figure 4: "implemented with one memory write").
// The caller must hold the lock.
func (h *nodeHeader) unlock() {
	v := h.version.Load()
	if v&splittingBit != 0 {
		v += vsplitOne // top field: overflow wraps harmlessly
	} else if v&insertingBit != 0 {
		v = (v &^ vinsertMask) | ((v + vinsertOne) & vinsertMask)
	}
	v &^= lockBit | insertingBit | splittingBit
	h.version.Store(v)
}

// The mark* helpers set state bits; the caller must hold the node lock.

//masstree:locked h
func (h *nodeHeader) markInserting() { h.version.Store(h.version.Load() | insertingBit) }

//masstree:locked h
func (h *nodeHeader) markSplitting() { h.version.Store(h.version.Load() | splittingBit) }

//masstree:locked h
func (h *nodeHeader) markDeleted() { h.version.Store(h.version.Load() | deletedBit) }

//masstree:locked h
func (h *nodeHeader) clearRoot() { h.version.Store(h.version.Load() &^ rootBit) }

// initVersion writes a freshly allocated node's initial version word. The
// node is private to its constructor, so this is the one version write that
// needs no lock; keeping it here preserves the invariant that version bits
// change only in this file.
func (h *nodeHeader) initVersion(v uint64) { h.version.Store(v) }
