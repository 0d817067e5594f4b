package btree

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/baseline/occ"
	"repro/internal/value"
)

type entry struct {
	lead uint64
	key  *bkey
	val  unsafe.Pointer
}

// splitInsert splits the full, locked border node n while inserting key,
// whose lead is kl, at the given rank, then ascends (Figure 5 adapted to
// whole keys). Both sides are rewritten compacted — the splitting bit
// already forces reader retries on this node, so permuter-mode's
// no-rearrangement benefit applies to non-split inserts, which is what the
// "+Permuter" experiment measures.
func (t *Tree) splitInsert(n *borderNode, rank int, kl uint64, key []byte, v *value.Value) {
	p := perm(n.permutation.Load())
	var ents [width + 1]entry
	for i := 0; i < width; i++ {
		slot := t.slotOf(n, p, i)
		pos := i
		if i >= rank {
			pos = i + 1
		}
		ents[pos] = entry{lead: n.lead[slot].Load(), key: n.keys[slot].Load(), val: atomic.LoadPointer(&n.vals[slot])}
	}
	ents[rank] = entry{lead: kl, key: makeKey(key), val: unsafe.Pointer(v)}
	total := width + 1

	splitAt := total / 2
	if rank == width && n.next.Load() == nil {
		splitAt = total - 1 // sequential-insert optimization (§4.3)
	}
	left, right := ents[:splitAt], ents[splitAt:total]

	n.h.version.MarkSplitting()
	n2 := &borderNode{lowLead: right[0].lead}
	n2.lowkey.Store(right[0].key)
	n2.h.version.Init(occ.BorderBit | occ.LockBit | occ.SplittingBit)
	for i, e := range right {
		n2.lead[i].Store(e.lead)
		n2.keys[i].Store(e.key)
		atomic.StorePointer(&n2.vals[i], e.val)
		n2.used |= 1 << uint(i)
	}
	n2.permutation.Store(uint64(emptyPerm)&^0xf | uint64(len(right)))
	n2.nkeys.Store(int32(len(right)))

	for i, e := range left {
		n.lead[i].Store(e.lead)
		n.keys[i].Store(e.key)
		atomic.StorePointer(&n.vals[i], e.val)
	}
	n.permutation.Store(uint64(emptyPerm)&^0xf | uint64(len(left)))
	n.nkeys.Store(int32(len(left)))
	n.used = (1 << width) - 1

	n2.next.Store(n.next.Load())
	n.next.Store(n2)

	t.ascend(&n.h, &n2.h, right[0].lead, right[0].key)
}

// ascend inserts sibling n2 with separator sep, whose lead is sl, into n's
// parent, splitting interior nodes upward as needed. n and n2 arrive locked;
// everything is unlocked on return.
func (t *Tree) ascend(n, n2 *nodeHeader, sl uint64, sep *bkey) {
	for {
		p := lockParent(n)
		if p == nil {
			r := &interiorNode{}
			r.h.version.Init(occ.RootBit)
			r.lead[0].Store(sl)
			r.keys[0].Store(sep)
			r.child[0].Store(n)
			r.child[1].Store(n2)
			r.nkeys.Store(1)
			n.parent.Store(r)
			n2.parent.Store(r)
			n.version.ClearRoot()
			t.root.CompareAndSwap(n, &r.h)
			n.version.Unlock()
			n2.version.Unlock()
			return
		}
		if int(p.nkeys.Load()) < width {
			p.h.version.MarkInserting()
			nk := int(p.nkeys.Load())
			pos := 0
			for pos < nk && compare(sl, sep.bytes(), p.lead[pos].Load(), &p.keys[pos]) > 0 {
				pos++
			}
			for i := nk; i > pos; i-- {
				p.lead[i].Store(p.lead[i-1].Load())
				p.keys[i].Store(p.keys[i-1].Load())
			}
			for i := nk + 1; i > pos+1; i-- {
				p.child[i].Store(p.child[i-1].Load())
			}
			p.lead[pos].Store(sl)
			p.keys[pos].Store(sep)
			p.child[pos+1].Store(n2)
			n2.parent.Store(p)
			p.nkeys.Store(int32(nk + 1))
			n.version.Unlock()
			n2.version.Unlock()
			p.h.version.Unlock()
			return
		}
		p.h.version.MarkSplitting()
		n.version.Unlock()
		p2 := &interiorNode{}
		p2.h.version.Init(occ.LockBit | occ.SplittingBit)
		sl2, sep2 := t.splitInterior(p, p2, sl, sep, n2)
		n2.version.Unlock()
		n, n2, sl, sep = &p.h, &p2.h, sl2, sep2
	}
}

func lockParent(h *nodeHeader) *interiorNode {
	for {
		p := h.parent.Load()
		if p == nil {
			return nil
		}
		p.h.version.Lock()
		if h.parent.Load() == p {
			return p
		}
		p.h.version.Unlock()
	}
}

func (t *Tree) splitInterior(p, p2 *interiorNode, sl uint64, sep *bkey, c *nodeHeader) (uint64, *bkey) {
	nk := int(p.nkeys.Load()) // == width
	pos := 0
	for pos < nk && compare(sl, sep.bytes(), p.lead[pos].Load(), &p.keys[pos]) > 0 {
		pos++
	}
	var leads [width + 1]uint64
	var keys [width + 1]*bkey
	var kids [width + 2]*nodeHeader
	for i := 0; i < pos; i++ {
		leads[i], keys[i] = p.lead[i].Load(), p.keys[i].Load()
	}
	leads[pos], keys[pos] = sl, sep
	for i := pos; i < nk; i++ {
		leads[i+1], keys[i+1] = p.lead[i].Load(), p.keys[i].Load()
	}
	for i := 0; i <= pos; i++ {
		kids[i] = p.child[i].Load()
	}
	kids[pos+1] = c
	for i := pos + 1; i <= nk; i++ {
		kids[i+1] = p.child[i].Load()
	}
	total := nk + 1
	mid := total / 2
	for i := 0; i < mid; i++ {
		p.lead[i].Store(leads[i])
		p.keys[i].Store(keys[i])
	}
	for i := 0; i <= mid; i++ {
		p.child[i].Store(kids[i])
	}
	p.nkeys.Store(int32(mid))
	rk := total - mid - 1
	for i := 0; i < rk; i++ {
		p2.lead[i].Store(leads[mid+1+i])
		p2.keys[i].Store(keys[mid+1+i])
	}
	for i := 0; i <= rk; i++ {
		child := kids[mid+1+i]
		p2.child[i].Store(child)
		child.parent.Store(p2)
	}
	p2.nkeys.Store(int32(rk))
	if pos+1 <= mid {
		c.parent.Store(p)
	}
	return leads[mid], keys[mid]
}
