package btree

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/baseline/occ"
	"repro/internal/value"
)

// ascendToRoot walks to the current root after a stale-root descent.
func ascendToRoot(h *nodeHeader) *nodeHeader {
	for !occ.Root(h.version.Load()) {
		p := h.parent.Load()
		if p == nil {
			return h
		}
		h = &p.h
	}
	return h
}

func (in *interiorNode) childFor(kl uint64, key []byte) *nodeHeader {
	nk := int(in.nkeys.Load())
	if nk < 0 {
		nk = 0
	} else if nk > width {
		nk = width
	}
	i := 0
	for i < nk && compare(kl, key, in.lead[i].Load(), &in.keys[i]) >= 0 {
		i++
	}
	return in.child[i].Load()
}

// findBorder descends with hand-over-hand validation (Figure 6); kl is
// key's lead.
func findBorder(root *nodeHeader, kl uint64, key []byte) (*borderNode, uint64) {
retry:
	n := root
	v := n.version.Stable()
	if !occ.Root(v) {
		root = ascendToRoot(root)
		goto retry
	}
	for {
		if occ.Border(v) {
			return n.border(), v
		}
		n1 := n.interior().childFor(kl, key)
		if n1 == nil {
			v1 := n.version.Stable()
			if occ.VSplit(v1) != occ.VSplit(v) {
				goto retry
			}
			v = v1
			continue
		}
		v1 := n1.version.Stable()
		if !occ.Changed(n.version.Load(), v) {
			n, v = n1, v1
			continue
		}
		v2 := n.version.Stable()
		if occ.VSplit(v2) != occ.VSplit(v) {
			goto retry
		}
		v = v2
	}
}

// slotOf maps rank to slot under the current mode.
func (t *Tree) slotOf(n *borderNode, p perm, rank int) int {
	if t.permuter {
		return p.slot(rank)
	}
	return rank
}

// liveCount returns the number of live keys under the current mode.
func (t *Tree) liveCount(n *borderNode, p perm) int {
	if t.permuter {
		return p.count()
	}
	return int(n.nkeys.Load())
}

// search finds key, whose lead is kl, among the node's live entries; rank is
// the insertion position when not found. Racy reads validated by version
// checks.
func (t *Tree) search(n *borderNode, p perm, kl uint64, key []byte) (rank int, found bool) {
	cnt := t.liveCount(n, p)
	if cnt < 0 {
		cnt = 0
	} else if cnt > width {
		cnt = width
	}
	for rank = 0; rank < cnt; rank++ {
		slot := t.slotOf(n, p, rank)
		c := compare(kl, key, n.lead[slot].Load(), &n.keys[slot])
		if c == 0 {
			return rank, true
		}
		if c < 0 { // search key precedes this entry: insertion point
			return rank, false
		}
	}
	return cnt, false
}

// Get returns the value for key; lock-free.
func (t *Tree) Get(key []byte) (*value.Value, bool) {
	kl := leadOf(key)
	n, v := findBorder(t.root.Load(), kl, key)
forward:
	p := perm(n.permutation.Load())
	rank, found := t.search(n, p, kl, key)
	var vp unsafe.Pointer
	if found {
		vp = atomic.LoadPointer(&n.vals[t.slotOf(n, p, rank)])
	}
	if v2 := n.h.version.Load(); occ.Changed(v2, v) {
		v = n.h.version.Stable()
		for {
			next := n.next.Load()
			if next == nil || compare(kl, key, next.lowLead, &next.lowkey) < 0 {
				break
			}
			n = next
			v = n.h.version.Stable()
		}
		goto forward
	}
	if !found || vp == nil {
		return nil, false
	}
	return (*value.Value)(vp), true
}

// Put stores v for key, reporting replacement.
func (t *Tree) Put(key []byte, v *value.Value) bool {
	kl := leadOf(key)
	n, _ := findBorder(t.root.Load(), kl, key)
	n.h.version.Lock()
	for {
		next := n.next.Load()
		if next == nil || compare(kl, key, next.lowLead, &next.lowkey) < 0 {
			break
		}
		next.h.version.Lock()
		n.h.version.Unlock()
		n = next
	}
	p := perm(n.permutation.Load())
	rank, found := t.search(n, p, kl, key)
	if found {
		atomic.StorePointer(&n.vals[t.slotOf(n, p, rank)], unsafe.Pointer(v))
		n.h.version.Unlock()
		return true
	}
	if t.liveCount(n, p) < width {
		t.insertAt(n, p, rank, kl, key, v)
		n.h.version.Unlock()
	} else {
		t.splitInsert(n, rank, kl, key, v) // unlocks
	}
	t.count.Add(1)
	return false
}

// insertAt writes a new key, whose lead is kl, into the locked, non-full
// border node.
func (t *Tree) insertAt(n *borderNode, p perm, rank int, kl uint64, key []byte, v *value.Value) {
	bk := makeKey(key)
	if t.permuter {
		np, slot := p.insert(rank)
		if n.used&(1<<uint(slot)) != 0 {
			n.h.version.MarkInserting() // reused slot: §4.6.5
		}
		n.lead[slot].Store(kl)
		n.keys[slot].Store(bk)
		atomic.StorePointer(&n.vals[slot], unsafe.Pointer(v))
		n.used |= 1 << uint(slot)
		n.permutation.Store(uint64(np))
		return
	}
	// Plain B-tree: rearrange the sorted array in place under the dirty bit,
	// forcing concurrent readers to retry (the cost "+Permuter" removes).
	n.h.version.MarkInserting()
	cnt := int(n.nkeys.Load())
	for i := cnt; i > rank; i-- {
		n.lead[i].Store(n.lead[i-1].Load())
		n.keys[i].Store(n.keys[i-1].Load())
		atomic.StorePointer(&n.vals[i], atomic.LoadPointer(&n.vals[i-1]))
	}
	n.lead[rank].Store(kl)
	n.keys[rank].Store(bk)
	atomic.StorePointer(&n.vals[rank], unsafe.Pointer(v))
	n.nkeys.Store(int32(cnt + 1))
}
