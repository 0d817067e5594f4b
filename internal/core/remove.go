package core

import (
	"unsafe"

	"repro/internal/occ"
	"repro/internal/value"
)

// Remove deletes key from the tree, returning the removed value (§3:
// remove; §4.6.5). Removal just shrinks the permutation — the key and value
// memory are not cleared, so a concurrent get may still return the removed
// value, which is correct for overlapping operations. Border nodes that
// become empty are unlinked and deleted, except a parent's leftmost child
// (which includes each B+-tree's initial node): see removeBorder. Empty trie
// layers are collapsed later by Maintain (the paper's deferred
// reclamation tasks).
func (t *Tree) Remove(key []byte) (*value.Value, bool) {
	return t.RemoveIf(key, nil)
}

// RemoveIf removes key only if pred, evaluated on the current value under
// the owning border node's lock, returns true; a nil pred is Remove. Callers
// decide on a value they read optimistically, and the predicate runs against
// the value actually being unlinked. The kvstore's drop kernel is built on
// it: its predicate, under the lock, re-checks what its caller asks (the TTL
// sweep's expiry) and draws the departure's timestamp atomically with the
// removal, so replay order matches execution order even across
// remove/re-insert races (§5). Returns the removed value and whether the
// removal happened.
func (t *Tree) RemoveIf(key []byte, pred func(old *value.Value) bool) (*value.Value, bool) {
restart:
	root := t.rootHeader()
	k := key
	depth := 0
	for {
		slice := keySlice(k)
		ord := keyOrd(k)
		n := t.lockBorder(root, slice)
		if n == nil {
			goto restart
		}
		perm := n.perm()
		rank, found := n.searchRank(perm, slice, ord)
		if !found {
			n.h.Unlock()
			return nil, false
		}
		slot := perm.slot(rank)
		kl, lv, bag := n.readSlot(slot)
		switch kl {
		case klLayer:
			root, k = t.enterLayer(n, slot), k[8:]
			depth++
			continue
		case klUnstable:
			panic("core: unstable slot observed under lock")
		}
		old, tw, j, found := lookup(kl, lv, bag, slot, k)
		if !found || pred != nil && !pred(old) {
			n.h.Unlock()
			return nil, false
		}
		if tw != nil && tw.keys().n() > 1 {
			// The twig without the key is a new twig, swapped in like a new
			// value (§4.6.1): a reader holding the old one still finds the
			// key, as one that ran a moment earlier would have.
			e := tw.entries()
			e.remove(j)
			n.storeLV(slot, unsafe.Pointer(e.build()))
			t.count.Add(-1)
			n.h.Unlock()
			return old, true
		}
		// The slot's only key, a twig's last included: the slot leaves the
		// permutation. Dirty the version before unlinking (§4.6.5): a
		// concurrent reader or scanner that snapshotted the permutation
		// while this key was live must fail its version validation and
		// retry, or it would return (or checkpoint!) a key that no longer
		// exists. The unlock increments vinsert, so post-remove validations
		// fail too.
		n.h.MarkInserting()
		np := perm.remove(rank)
		n.permutation.Store(uint64(np))
		t.count.Add(-1)
		if np.count() == 0 {
			t.emptyBorder(n, key, depth) // unlocks n
		} else {
			n.h.Unlock()
		}
		return old, true
	}
}

// emptyBorder handles a border node that has just become empty. n is locked
// on entry and unlocked on return. The initial leftmost node of a tree, the
// one without a prev link, is kept (its lowkey 0 is negative infinity); if
// it is the root of an empty layer-h tree (h >= 1), a collapse task is
// scheduled instead (§4.6.5: full trees are not cleaned up right away
// because that requires locking two layers).
//
//masstree:unlocks n
func (t *Tree) emptyBorder(n *borderNode, key []byte, depth int) {
	if n.prev.Load() == nil {
		if depth > 0 && occ.Root(n.h.Load()) && n.next.Load() == nil {
			t.scheduleCollapse(key[:depth*8])
		}
		n.h.Unlock()
		return
	}
	t.removeBorder(n)
}

// removeBorder unlinks the empty, locked, non-leftmost border node n from
// the border list and from its parent — unless n is its parent's leftmost
// child, in which case it stays in place, empty and revivable, exactly as
// each tree's leftmost node does. An emptied node's range goes left, to
// prev; dropping child[0] from an interior would instead route that range
// right, to n.next, whose lowkey is above it, and lockBorder only walks
// right. For any other child, prev is the child one to the left under the
// same parent, so the border list and the interior routing move together.
//
// Locks are taken left-to-right and then up the tree (prev, n, parent —
// ascend's order; nothing takes a border lock while holding an interior);
// when the border order cannot be honored directly we release and
// revalidate, because a concurrent insert may revive the node while it is
// unlocked. All three locks are held across the unlink.
//
//masstree:unlocks n
func (t *Tree) removeBorder(n *borderNode) {
	var p *borderNode
	for {
		p = n.prev.Load()
		if p.h.TryLock() {
			if n.prev.Load() == p && !occ.Deleted(p.h.Load()) {
				break
			}
			p.h.Unlock()
			continue
		}
		// Lock order is left-to-right: release n, take p then n, revalidate.
		n.h.Unlock()
		p.h.Lock()
		n.h.Lock()
		if n.perm().count() != 0 || occ.Deleted(n.h.Load()) {
			// Revived by a concurrent insert (or already gone): abort.
			p.h.Unlock()
			n.h.Unlock()
			return
		}
		if n.prev.Load() != p || occ.Deleted(p.h.Load()) {
			p.h.Unlock()
			continue
		}
		break
	}

	parent := n.h.lockParent()
	if parent == nil {
		panic("core: non-leftmost border without a parent") // born in a split
	}
	if parent.child[0].Load() == &n.h {
		parent.h.Unlock()
		p.h.Unlock()
		n.h.Unlock()
		return
	}

	// Unlink n. next's prev pointer is protected by n's (its previous
	// sibling's) lock, which we hold.
	n.h.MarkSplitting() // range moves to p: readers must retry from the root
	n.h.MarkDeleted()
	next := n.next.Load()
	p.next.Store(next)
	if next != nil {
		next.prev.Store(p)
	}
	p.h.Unlock()
	n.h.Unlock()
	t.stats.NodeDeletes.Add(1)
	t.removeChild(parent, &n.h)
}

// removeChild removes the given child — never child[0], see removeBorder —
// from the locked interior node p, shifting keys and children down, so the
// child to its left inherits the range. p is unlocked on return. p holds
// the child: the caller locked it through child's parent pointer.
//
//masstree:unlocks p
func (t *Tree) removeChild(p *interiorNode, child *nodeHeader) {
	nk := int(p.nkeys.Load())
	idx := 1
	for p.child[idx].Load() != child {
		idx++
	}
	p.h.MarkSplitting() // ranges shift: force readers to retry from the root
	for i := idx - 1; i < nk-1; i++ {
		p.keyslice[i].Store(p.keyslice[i+1].Load())
	}
	for i := idx; i < nk; i++ {
		p.child[i].Store(p.child[i+1].Load())
	}
	p.nkeys.Store(int32(nk - 1))
	p.h.Unlock()
}

// scheduleCollapse queues a maintenance task to remove the (possibly) empty
// trie layer reached by the given key prefix (a multiple of 8 bytes).
func (t *Tree) scheduleCollapse(prefix []byte) {
	cp := append([]byte(nil), prefix...)
	t.maintMu.Lock()
	t.maint = append(t.maint, cp)
	t.maintMu.Unlock()
}

// Maintain runs queued maintenance tasks (empty-layer collapse), returning
// how many layers were collapsed. The paper schedules these through
// epoch-based reclamation; here a reader caught in a collapse finds the
// layer's root marked deleted and retries (see collapseLayer), so the
// kvstore calls Maintain straight from its maintenance tick, and tests call
// it directly.
func (t *Tree) Maintain() int {
	t.maintMu.Lock()
	tasks := t.maint
	t.maint = nil
	t.maintMu.Unlock()
	done := 0
	for _, prefix := range tasks {
		if t.collapseLayer(prefix) {
			done++
		}
	}
	return done
}

// collapseLayer removes the trie layer at the given key prefix if it is
// still a single empty border node. It locks the owning border node in the
// parent layer and then the layer root — the only place two layers are
// locked together, always parent before child, so it cannot deadlock with
// normal operations (which lock at most one layer at a time, §4.6.5).
// Marking the layer root deleted under both locks is what protects a reader
// already inside the layer: it sees the mark and retries from the top, and
// the garbage collector keeps the unlinked node readable meanwhile.
func (t *Tree) collapseLayer(prefix []byte) bool {
	root := t.rootHeader()
	k := prefix
	for {
		slice := keySlice(k)
		n := t.lockBorder(root, slice)
		if n == nil {
			return false // deleted under us: the task is dropped, the layer stays as it is
		}
		perm := n.perm()
		rank, found := n.searchRank(perm, slice, 9)
		if !found {
			n.h.Unlock()
			return false
		}
		slot := perm.slot(rank)
		kl, lv, _ := n.readSlot(slot)
		if kl != klLayer {
			n.h.Unlock()
			return false
		}
		if len(k) > 8 {
			// Intermediate layer: descend.
			root, k = t.enterLayer(n, slot), k[8:]
			continue
		}

		// Final layer link. Collapse only if the layer is still one empty
		// border node; anything else was revived or grew.
		child := ascendToRoot((*nodeHeader)(lv))
		if !occ.Border(child.Load()) {
			n.h.Unlock()
			return false
		}
		b := child.border()
		b.h.Lock()
		if occ.Deleted(b.h.Load()) || b.perm().count() != 0 || b.next.Load() != nil {
			b.h.Unlock()
			n.h.Unlock()
			return false
		}
		b.h.MarkSplitting()
		b.h.MarkDeleted()
		b.h.Unlock()

		np := perm.remove(rank)
		n.permutation.Store(uint64(np))
		t.stats.LayerCollapses.Add(1)
		if np.count() == 0 {
			t.emptyBorder(n, prefix, len(prefix)/8-1) // unlocks n
		} else {
			n.h.Unlock()
		}
		return true
	}
}
