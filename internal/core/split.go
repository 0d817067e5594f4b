package core

import (
	"unsafe"

	"repro/internal/occ"
	"repro/internal/value"
)

// borderEntry is a writer-local snapshot of one border-node key used while
// redistributing keys during a split. slot is the entry's slot in the old
// node, or -1 for the key being inserted.
type borderEntry struct {
	slot  int
	slice uint64
	kl    uint32
	suf   []byte // aliases n's bag, or the caller's key for the pending entry
	lv    unsafe.Pointer
}

// splitInsert splits the full, locked border node n while inserting the new
// key at the given rank (paper Figure 5), at the index splitPoint picks. It
// releases all locks before returning.
//
//masstree:unlocks n
func (t *Tree) splitInsert(n *borderNode, rank int, slice uint64, k []byte, v *value.Value) {
	perm := n.perm()
	cnt := perm.count()

	// Gather existing keys plus the pending key, in key order.
	var ents [width + 1]borderEntry
	bag, kw := n.bag(), n.keylens.Load()
	for i := 0; i < cnt; i++ {
		slot := perm.slot(i)
		pos := i
		if i >= rank {
			pos = i + 1
		}
		var suf []byte
		kl := klAt(kw, slot)
		if kl == klSuffix {
			suf = bag.suffix(slot)
		}
		ents[pos] = borderEntry{
			slot:  slot,
			slice: n.keyslice[slot].Load(),
			kl:    kl,
			suf:   suf,
			lv:    n.loadLV(slot),
		}
	}
	pend := borderEntry{slot: -1, slice: slice, lv: unsafe.Pointer(v)}
	if len(k) <= 8 {
		pend.kl = uint32(len(k))
	} else {
		pend.kl = klSuffix
		pend.suf = k[8:]
	}
	ents[rank] = pend
	total := cnt + 1

	inRun := n.continuesRun(rank)
	if inRun {
		t.stats.RunSplits.Add(1)
	}
	splitAt := splitPoint(ents[:total], rank, inRun, n.next.Load() == nil)
	left, right := ents[:splitAt], ents[splitAt:total]

	n.h.MarkSplitting()
	n2 := newBorder(false, true) //masstree:acquires n2.h
	n2.h.MarkSplitting()
	n2.lowSlice = right[0].slice

	// The run state goes with the new key, at its rank in the node it joins.
	if steps := n.nextRun(rank) &^ 0xf; rank < splitAt {
		n.run = steps | uint8(rank)
	} else {
		n.run, n2.run = 0, steps|uint8(rank-splitAt)
	}

	// Fill the new sibling; it is invisible until linked. Each side gets a
	// bag of exactly its own suffixes, stored before its permutation.
	var sufs [width][]byte
	var kw2 uint64
	for i, e := range right {
		n2.keyslice[i].Store(e.slice)
		kw2 |= uint64(e.kl) << (4 * uint(i))
		sufs[i] = e.suf
		n2.storeLV(i, e.lv)
		n2.usedMask |= 1 << uint(i)
	}
	n2.keylens.Store(kw2)
	n2.suffixes.Store(newBag(&sufs))
	n2.permutation.Store(uint64(identityPerm(len(right))))

	// Rebuild n's side. Entries keep their slots; the pending key (if it
	// stayed left) takes any slot not used by the left side — readers using
	// the old permutation that race with the overwrite are forced to retry
	// by the splitting bit.
	var idx [width]int
	usedLeft := uint16(0)
	pendPos := -1
	sufs = [width][]byte{}
	for i, e := range left {
		if e.slot < 0 {
			pendPos = i
			continue
		}
		idx[i] = e.slot
		usedLeft |= 1 << uint(e.slot)
		sufs[e.slot] = e.suf
	}
	if pendPos >= 0 {
		slot := -1
		for s := 0; s < width; s++ {
			if usedLeft&(1<<uint(s)) == 0 {
				slot = s
				break
			}
		}
		idx[pendPos] = slot
		usedLeft |= 1 << uint(slot)
		n.keyslice[slot].Store(pend.slice)
		n.setKeylen(slot, pend.kl)
		sufs[slot] = pend.suf
		n.storeLV(slot, pend.lv)
	}
	n.suffixes.Store(newBag(&sufs))
	// The permutation's tail is the free list; it must hold exactly the
	// slots not referenced by the live region or future inserts would claim
	// live slots.
	fi := len(left)
	for s := 0; s < width; s++ {
		if usedLeft&(1<<uint(s)) == 0 {
			idx[fi] = s
			fi++
		}
	}
	n.usedMask = (1 << width) - 1
	n.permutation.Store(uint64(pack(idx, len(left))))

	// Link the sibling into the border list. oldNext's prev pointer is
	// protected by n's lock, which we hold (§4.5).
	oldNext := n.next.Load()
	n2.next.Store(oldNext)
	n2.prev.Store(n)
	if oldNext != nil {
		oldNext.prev.Store(n2)
	}
	n.next.Store(n2)

	t.stats.Splits.Add(1)
	t.ascend(&n.h, &n2.h, n2.lowSlice)
}

// identityPerm returns a permutation with the first count slots live in slot
// order.
func identityPerm(count int) permutation {
	return permutation(uint64(emptyPermutation())&^0xf | uint64(count))
}

// splitPoint returns where a split cuts ents — the full node's keys and the
// pending one at rank, in key order — as the index of the right side's first
// entry. The middle, unless the inserts to come are ascending: an append to
// the layer's rightmost border (§4.3's sequential-insert optimization) or an
// insert that continues an ascending run in the node (inRun, continuesRun)
// cuts right after the new key. The left node keeps it and everything before
// it, and the run goes on filling the left node to its end; at the node's
// end the new key starts the right node alone. A random insert's 50/50 cut
// leaves a half-full left node an ascending run never comes back to.
//
// All keys sharing a slice must stay in one node (§4.2), so sliceBoundary
// has the last word. Either side is non-empty whatever the run state said:
// the cut before sliceBoundary is in [1, len(ents)-1], and so is its result.
func splitPoint(ents []borderEntry, rank int, inRun, rightmost bool) int {
	total := len(ents)
	at := total / 2
	if inRun || rightmost && rank == total-1 {
		at = min(rank+1, total-1)
	}
	return sliceBoundary(ents, at)
}

// runSteps is how many inserts in a row, each one rank after the one before,
// make the next one on an ascending run. Random keys land next to the last
// insert often enough that cutting after any such neighbour grows the
// decimal dataset's tree by 0.52 B a key; after one prior step by 0.04,
// after two by 0.01 (DESIGN.md).
const runSteps = 2

// nextRun is n's run state after an insert at rank.
//
//masstree:locked n
func (n *borderNode) nextRun(rank int) uint8 {
	steps := n.run >> 4
	switch {
	case int(n.run&0xf)+1 != rank:
		steps = 0
	case steps < runSteps:
		steps++
	}
	return steps<<4 | uint8(rank)
}

// continuesRun reports whether an insert at rank continues an ascending run
// in n: it lands one rank after the last insert, which ended runSteps such
// steps in a row.
//
//masstree:locked n
func (n *borderNode) continuesRun(rank int) bool {
	return n.run>>4 == runSteps && int(n.run&0xf)+1 == rank
}

// sliceBoundary returns the index nearest want in (0, len(ents)) at which
// the key slice changes, so that no slice group straddles the split.
func sliceBoundary(ents []borderEntry, want int) int {
	isBoundary := func(i int) bool {
		return i > 0 && i < len(ents) && ents[i-1].slice != ents[i].slice
	}
	if isBoundary(want) {
		return want
	}
	for d := 1; d < len(ents); d++ {
		if isBoundary(want + d) {
			return want + d
		}
		if isBoundary(want - d) {
			return want - d
		}
	}
	panic("core: border node holds a single slice group wider than fanout")
}

// ascend inserts the new sibling n2 (with separator slice sep) into n's
// parent, splitting interior nodes upward as needed (Figure 5). On entry n
// and n2 are locked with their splitting bits set; all locks are released by
// the time ascend returns. Locks are acquired up the tree, which prevents
// deadlock (§4.5).
//
//masstree:unlocks n n2
func (t *Tree) ascend(n, n2 *nodeHeader, sep uint64) {
	for {
		p := n.lockParent()
		if p == nil {
			// n was the root of its B+-tree: grow a new interior root.
			r := newInterior(occ.RootBit)
			r.keyslice[0].Store(sep)
			r.child[0].Store(n)
			r.child[1].Store(n2)
			r.nkeys.Store(1)
			n.parent.Store(r)
			n2.parent.Store(r)
			n.ClearRoot()
			t.root.CompareAndSwap(n, &r.h) // layer-0 root; inner layers fix lazily
			n.Unlock()
			n2.Unlock()
			return
		}
		if int(p.nkeys.Load()) < width {
			p.h.MarkInserting()
			nk := int(p.nkeys.Load())
			pos := 0
			for pos < nk && p.keyslice[pos].Load() < sep {
				pos++
			}
			for i := nk; i > pos; i-- {
				p.keyslice[i].Store(p.keyslice[i-1].Load())
			}
			for i := nk + 1; i > pos+1; i-- {
				p.child[i].Store(p.child[i-1].Load())
			}
			p.keyslice[pos].Store(sep)
			p.child[pos+1].Store(n2)
			n2.parent.Store(p)
			p.nkeys.Store(int32(nk + 1))
			n.Unlock()
			n2.Unlock()
			p.h.Unlock()
			return
		}
		// Parent full: split it and keep ascending.
		p.h.MarkSplitting()
		n.Unlock()
		p2 := newInterior(occ.LockBit | occ.SplittingBit) //masstree:acquires p2.h
		sep2 := t.splitInterior(p, p2, sep, n2)
		n2.Unlock()
		n, n2, sep = &p.h, &p2.h, sep2
		t.stats.Splits.Add(1)
	}
}

// splitInterior splits the full, locked interior node p while inserting
// separator sep with right child c. The median key is promoted (returned),
// the upper keys and children move to p2, and moved children's parent
// pointers are reassigned under p's and p2's locks (§4.5).
//
//masstree:locked p p2
func (t *Tree) splitInterior(p, p2 *interiorNode, sep uint64, c *nodeHeader) uint64 {
	nk := int(p.nkeys.Load()) // == width
	pos := 0
	for pos < nk && p.keyslice[pos].Load() < sep {
		pos++
	}
	var keys [width + 1]uint64
	var kids [width + 2]*nodeHeader
	for i := 0; i < pos; i++ {
		keys[i] = p.keyslice[i].Load()
	}
	keys[pos] = sep
	for i := pos; i < nk; i++ {
		keys[i+1] = p.keyslice[i].Load()
	}
	for i := 0; i <= pos; i++ {
		kids[i] = p.child[i].Load()
	}
	kids[pos+1] = c
	for i := pos + 1; i <= nk; i++ {
		kids[i+1] = p.child[i].Load()
	}

	total := nk + 1 // 16 keys, 17 children
	mid := total / 2
	promoted := keys[mid]

	for i := 0; i < mid; i++ {
		p.keyslice[i].Store(keys[i])
	}
	for i := 0; i <= mid; i++ {
		p.child[i].Store(kids[i])
	}
	p.nkeys.Store(int32(mid))

	rk := total - mid - 1
	for i := 0; i < rk; i++ {
		p2.keyslice[i].Store(keys[mid+1+i])
	}
	for i := 0; i <= rk; i++ {
		child := kids[mid+1+i]
		p2.child[i].Store(child)
		child.parent.Store(p2)
	}
	p2.nkeys.Store(int32(rk))

	// The pending child's parent: moved children were just set to p2; if it
	// stayed in the left half it still needs its parent assigned.
	if pos+1 <= mid {
		c.parent.Store(p)
	}
	return promoted
}
