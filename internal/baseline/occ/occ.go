// Package occ provides the optimistic-concurrency-control version word used
// by the baseline trees (it mirrors internal/core's version word, Figure 3,
// which stays unexported to keep the Masstree hot path self-contained).
package occ

import (
	"runtime"
	"sync/atomic"
)

// Version-word bits; see paper Figure 3.
const (
	LockBit      uint64 = 1 << 0
	InsertingBit uint64 = 1 << 1
	SplittingBit uint64 = 1 << 2
	DeletedBit   uint64 = 1 << 3 // kept for Figure 3's layout; no baseline deletes a node
	RootBit      uint64 = 1 << 4
	BorderBit    uint64 = 1 << 5

	DirtyMask = InsertingBit | SplittingBit

	vinsertShift        = 6
	vinsertBits         = 16
	vinsertMask  uint64 = ((1 << vinsertBits) - 1) << vinsertShift
	vinsertOne   uint64 = 1 << vinsertShift

	vsplitShift        = vinsertShift + vinsertBits
	vsplitOne   uint64 = 1 << vsplitShift
	vsplitMask  uint64 = ^uint64(0) &^ (vsplitOne - 1)
)

// Version is an atomic node version word.
type Version struct {
	v atomic.Uint64
}

// Init sets the initial bits (not concurrency safe; construction only).
func (n *Version) Init(bits uint64) { n.v.Store(bits) }

// Load returns the current word.
func (n *Version) Load() uint64 { return n.v.Load() }

// Stable spins until the version is not dirty and returns the snapshot.
func (n *Version) Stable() uint64 {
	for spins := 0; ; spins++ {
		v := n.v.Load()
		if v&DirtyMask == 0 {
			return v
		}
		if spins%128 == 127 {
			runtime.Gosched()
		}
	}
}

// Lock acquires the node spinlock.
func (n *Version) Lock() {
	for spins := 0; ; spins++ {
		v := n.v.Load()
		if v&LockBit == 0 && n.v.CompareAndSwap(v, v|LockBit) {
			return
		}
		if spins%128 == 127 {
			runtime.Gosched()
		}
	}
}

// Unlock releases the lock, bumping vsplit or vinsert per the dirty bits.
func (n *Version) Unlock() {
	v := n.v.Load()
	if v&SplittingBit != 0 {
		v += vsplitOne
	} else if v&InsertingBit != 0 {
		v = (v &^ vinsertMask) | ((v + vinsertOne) & vinsertMask)
	}
	v &^= LockBit | InsertingBit | SplittingBit
	n.v.Store(v)
}

// MarkInserting/MarkSplitting set state bits under the lock.
func (n *Version) MarkInserting() { n.v.Store(n.v.Load() | InsertingBit) }
func (n *Version) MarkSplitting() { n.v.Store(n.v.Load() | SplittingBit) }
func (n *Version) ClearRoot()     { n.v.Store(n.v.Load() &^ RootBit) }

// Changed reports whether two snapshots differ beyond the lock bit.
func Changed(a, b uint64) bool { return (a^b)&^LockBit != 0 }

// VSplit extracts the split counter.
func VSplit(v uint64) uint64 { return v & vsplitMask }

// Helpers for predicate bits.
func Root(v uint64) bool   { return v&RootBit != 0 }
func Border(v uint64) bool { return v&BorderBit != 0 }
