package core

import (
	"unsafe"

	"repro/internal/occ"
	"repro/internal/value"
)

// Put stores v for key, returning the value it replaced, if any (§3: put).
// Replacing an existing value is a single atomic pointer write and forces no
// reader retries (§4.6.1); inserting a new key publishes it with one atomic
// permutation write (§4.6.2).
func (t *Tree) Put(key []byte, v *value.Value) (old *value.Value, replaced bool) {
	old, _ = t.put(key, func(int, *value.Value) *value.Value { return v })
	return old, old != nil
}

// Update performs an atomic read-modify-write: f runs under the owning
// border node's lock with the current value (nil if the key is absent) and
// returns the value to store, or nil to decline, leaving the tree unchanged
// — no store, no insert, and no reader retries. This is how multi-column
// puts are made atomic (§4.7) and the hook versioned compare-and-swap
// builds on (a CAS inspects old's version under the lock and declines on
// mismatch); the same
// contract applies to PutBatchInto's per-key callback, so conditional writes
// batch exactly like unconditional ones. It returns the value f observed and
// the value it stored (nil when it declined).
func (t *Tree) Update(key []byte, f func(old *value.Value) *value.Value) (old, stored *value.Value) {
	return t.put(key, func(_ int, old *value.Value) *value.Value { return f(old) })
}

// lockBorder descends from root to the border node responsible for slice
// and locks it. A split that committed between the descent and the lock may
// have shifted responsibility for the key to a right sibling; the node's
// split counter says whether one did (Figure 7's forward rule). If vsplit is
// what the descent saw and the node is not deleted, the node owns the slice:
// findBorder routed here, so its lowkey is at or below the slice, lowkeys
// never change, and a node's range shrinks only by its own split (a
// successor's removal widens it). Then the successor's lowkey, a second
// node's line, is not read. Otherwise the border links are chased
// hand-over-hand under lock until the node owns the slice. Returns nil —
// with everything unlocked and the root retry counted — when the node was
// deleted underneath us and the caller must restart from the tree root.
// This is the one copy of the writer-side locking protocol, shared by put,
// putRun, remove and collapseLayer.
//
//masstree:returns-locked
func (t *Tree) lockBorder(root *nodeHeader, slice uint64) *borderNode {
	n, v := t.findBorder(root, slice)
	n.h.Lock()
	locked := n.h.Load()
	if occ.Deleted(locked) {
		n.h.Unlock()
		t.stats.RootRetries.Add(1)
		return nil
	}
	if occ.VSplit(locked) == occ.VSplit(v) {
		return n
	}
	for !n.owns(slice) {
		next := n.next.Load()
		next.h.Lock()
		n.h.Unlock()
		n = next
		if occ.Deleted(n.h.Load()) {
			n.h.Unlock()
			t.stats.RootRetries.Add(1)
			return nil
		}
	}
	return n
}

// lockHint is lockBorder for a caller that already has a candidate: the
// border a wave's descent for the key ended at (see borderHint), slice being
// the key's slice at that border's layer. The wave was a reader and time has
// passed, so nothing about n is trusted; it is locked and asked the question
// lockBorder's chase ends on. Not deleted and owning the slice, it is the
// node lockBorder would have returned (see owns). Anything else — no hint, a
// node since deleted, a split that moved the slice right — returns nil with
// nothing locked, and the caller descends from the root as if it had never
// been given a hint.
//
//masstree:returns-locked
func (t *Tree) lockHint(n *borderNode, slice uint64) *borderNode {
	if n == nil {
		return nil
	}
	n.h.Lock()
	if occ.Deleted(n.h.Load()) || !n.owns(slice) {
		n.h.Unlock()
		return nil
	}
	return n
}

// put descends the trie to the border node responsible for key, locks it,
// and lets putAt do there what the key needs.
func (t *Tree) put(key []byte, apply func(int, *value.Value) *value.Value) (old, stored *value.Value) {
restart:
	root := t.rootHeader()
	k := key
	for {
		n := t.lockBorder(root, keySlice(k))
		if n == nil {
			goto restart
		}
		old, stored, step, at := t.putAt(n, k, 0, apply)
		switch step {
		case stepLayer:
			root, k = t.enterLayer(n, at), k[8:]
			continue
		case stepSplit:
			t.splitInsert(n, at, keySlice(k), k, stored) // unlocks
		default:
			n.h.Unlock()
		}
		t.counted(old, stored)
		return old, stored
	}
}

// A putStep is what putAt leaves its caller to do.
type putStep uint8

const (
	stepDone  putStep = iota // nothing: the key is written, or apply declined
	stepLayer                // the key lives in the layer under slot at: apply has not run
	stepSplit                // apply's value belongs at rank at, and n is full: splitInsert
)

// putAt is the one statement of "act on the slot you found, under the lock":
// n is locked and owns the slice of k, what is left of a key at n's layer.
// It finds the key's place and runs apply(i, old) there — Update's contract
// — storing what apply returns: over the old value (in lv or in its twig
// cell), into a free slot, or beside the slice's other long keys, in a twig
// (twig.go) or at a twig's fifth key a layer. Two things it leaves to the
// caller, who knows what to do about its lock: descending a layer, and
// splitting a full node. n stays locked. Counting is the caller's too
// (counted): makeLayer moves keys through here that are not new.
//
//masstree:locked n
func (t *Tree) putAt(n *borderNode, k []byte, i int, apply func(int, *value.Value) *value.Value) (old, stored *value.Value, step putStep, at int) {
	slice := keySlice(k)
	perm := n.perm()
	rank, found := n.searchRank(perm, slice, keyOrd(k))
	if !found {
		// Key absent: insert it — unless apply declines (conditional writes).
		if stored = apply(i, nil); stored == nil {
			return nil, nil, stepDone, 0
		}
		if perm.count() == width {
			return nil, stored, stepSplit, rank
		}
		t.insertSlot(n, perm, rank, slice, k, stored)
		return nil, stored, stepDone, 0
	}
	slot := perm.slot(rank)
	kl, lv, bag := n.readSlot(slot)
	switch kl {
	case klLayer:
		return nil, nil, stepLayer, slot
	case klUnstable:
		// Unstable slots exist only while their writer holds the node
		// lock, which we hold.
		panic("core: unstable slot observed under lock")
	}
	old, tw, j, found := lookup(kl, lv, bag, slot, k)
	if stored = apply(i, old); stored == nil {
		return old, nil, stepDone, 0
	}
	switch {
	case found && tw != nil:
		tw.cell(j).Store(stored)
	case found:
		n.storeLV(slot, unsafe.Pointer(stored))
	case tw != nil:
		// A new key of the twig: a new twig, or at the fifth a layer.
		e := tw.entries()
		e.insert(j, k[8:], unsafe.Pointer(stored))
		if e.n <= twigCap {
			n.storeLV(slot, unsafe.Pointer(e.build()))
		} else {
			t.makeLayer(n, slot, &e)
		}
	default:
		// A second long key of the slice: the two share a twig.
		t.makeTwig(n, slot, bagAt(bag).suffix(slot), k[8:], stored)
	}
	return old, stored, stepDone, 0
}

// counted adds to the tree's key count what a putAt that was shown old and
// stored stored amounts to: one key, if it saw none and stored one.
func (t *Tree) counted(old, stored *value.Value) {
	if old == nil && stored != nil {
		t.count.Add(1)
	}
}

// enterLayer is the step from the locked border n down the layer link in
// slot: it unlocks n and returns the layer's root.
//
//masstree:unlocks n
func (t *Tree) enterLayer(n *borderNode, slot int) *nodeHeader {
	lvp := n.loadLV(slot)
	n.h.Unlock()
	return t.resolveLayer(n, slot, lvp)
}

// insertSlot writes a new key into a free slot of the locked border node n
// and publishes it with a single permutation store. Inserting into a slot
// that previously held a (since removed) key dirties the version so readers
// that located the old key there retry (§4.6.5). It also advances n's run
// state, which only the next split reads.
//
//masstree:locked n
func (t *Tree) insertSlot(n *borderNode, perm permutation, rank int, slice uint64, k []byte, v *value.Value) {
	newPerm, slot := perm.insert(rank)
	if n.usedMask&(1<<uint(slot)) != 0 {
		n.h.MarkInserting()
		t.stats.SlotReuses.Add(1)
	}
	n.keyslice[slot].Store(slice)
	if len(k) <= 8 {
		n.setKeylen(slot, uint32(len(k)))
	} else {
		// A fresh bag: the live suffixes plus this one, and none of the dead.
		var sufs [width][]byte
		bag, kw := n.bag(), n.keylens.Load()
		for r, cnt := 0, perm.count(); r < cnt; r++ {
			if s := perm.slot(r); klAt(kw, s) == klSuffix {
				sufs[s] = bag.suffix(s)
			}
		}
		sufs[slot] = k[8:]
		n.suffixes.Store(newBag(&sufs))
		n.setKeylen(slot, klSuffix)
	}
	n.storeLV(slot, unsafe.Pointer(v))
	n.usedMask |= 1 << uint(slot)
	n.run = n.nextRun(rank)
	n.permutation.Store(uint64(newPerm))
}
