package core

import (
	"bytes"
	"unsafe"

	"repro/internal/value"
)

// Remove deletes key from the tree, returning the removed value (§3:
// remove; §4.6.5). Removal just shrinks the permutation — the key and value
// memory are not cleared, so a concurrent get may still return the removed
// value, which is correct for overlapping operations. Border nodes that
// become empty are unlinked and deleted, except a parent's leftmost child
// (which includes each B+-tree's initial node): see removeBorder. Empty trie
// layers are collapsed later by Maintain (the paper's epoch-scheduled
// reclamation tasks).
func (t *Tree) Remove(key []byte) (*value.Value, bool) {
	return t.remove(key, nil)
}

// RemoveWith is Remove with a callback that runs under the owning border
// node's lock just before the key is unlinked. The kvstore uses it to assign
// the remove's log timestamp atomically with the removal, so replay order
// matches execution order even across remove/re-insert races (§5).
func (t *Tree) RemoveWith(key []byte, fn func(old *value.Value)) (*value.Value, bool) {
	if fn == nil {
		return t.remove(key, nil)
	}
	return t.remove(key, func(old *value.Value) bool { fn(old); return true })
}

// RemoveIf removes key only if pred, evaluated on the current value under
// the owning border node's lock, returns true. This is the remove-for-
// eviction hook: callers decide on a value they read optimistically and the
// predicate runs against the value actually being unlinked. How much it
// re-checks is the caller's policy — the kvstore's TTL sweep re-validates
// expiry so a racing fresh put is never dropped by a stale deadline, while
// its eviction path removes unconditionally (a cache may evict any key at
// any moment, so evicting a just-put value is semantically the same as
// evicting it right after). Returns the removed value and whether the
// removal happened.
func (t *Tree) RemoveIf(key []byte, pred func(old *value.Value) bool) (*value.Value, bool) {
	return t.remove(key, pred)
}

func (t *Tree) remove(key []byte, fn func(old *value.Value) bool) (*value.Value, bool) {
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
			n.h.unlock()
			return nil, false
		}
		slot := perm.slot(rank)
		var (
			old *value.Value // nil: the slot holds some other key of the slice
			tw  *twig        // the twig holding the key, as its j-th
			j   int
		)
		switch kl := n.keylen(slot); kl {
		case klLayer:
			root, k = t.enterLayer(n, slot), k[8:]
			depth++
			continue
		case klUnstable:
			panic("core: unstable slot observed under lock")
		case klTwig:
			tw = (*twig)(n.loadLV(slot))
			if j, found = tw.keys().search(k[8:]); found {
				old = tw.value(j)
			}
		case klSuffix:
			if bytes.Equal(n.bag().suffix(slot), k[8:]) {
				old = (*value.Value)(n.loadLV(slot))
			}
		default:
			old = (*value.Value)(n.loadLV(slot))
		}
		if old == nil || fn != nil && !fn(old) {
			n.h.unlock()
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
			n.h.unlock()
			return old, true
		}
		// The slot's only key, a twig's last included: the slot leaves the
		// permutation. Dirty the version before unlinking (§4.6.5): a
		// concurrent reader or scanner that snapshotted the permutation
		// while this key was live must fail its version validation and
		// retry, or it would return (or checkpoint!) a key that no longer
		// exists. The unlock increments vinsert, so post-remove validations
		// fail too.
		n.h.markInserting()
		np := perm.remove(rank)
		n.permutation.Store(uint64(np))
		t.count.Add(-1)
		if np.count() == 0 {
			t.emptyBorder(n, key, depth) // unlocks n
		} else {
			n.h.unlock()
		}
		return old, true
	}
}

// emptyBorder handles a border node that has just become empty. n is locked
// on entry and unlocked on return. The initial leftmost node of a tree is
// kept (it anchors lowkey = -inf); if it is the root of an empty layer-h
// tree (h >= 1), a collapse task is scheduled instead (§4.6.5: full trees
// are not cleaned up right away because that requires locking two layers).
//
//masstree:unlocks n
func (t *Tree) emptyBorder(n *borderNode, key []byte, depth int) {
	if n.lowOrd < 0 {
		if depth > 0 && isRoot(n.h.version.Load()) && n.next.Load() == nil {
			t.scheduleCollapse(key[:depth*8])
		}
		n.h.unlock()
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
		if p.h.tryLock() {
			if n.prev.Load() == p && !isDeleted(p.h.version.Load()) {
				break
			}
			p.h.unlock()
			continue
		}
		// Lock order is left-to-right: release n, take p then n, revalidate.
		n.h.unlock()
		p.h.lock()
		n.h.lock()
		if n.perm().count() != 0 || isDeleted(n.h.version.Load()) {
			// Revived by a concurrent insert (or already gone): abort.
			p.h.unlock()
			n.h.unlock()
			return
		}
		if n.prev.Load() != p || isDeleted(p.h.version.Load()) {
			p.h.unlock()
			continue
		}
		break
	}

	parent := n.h.lockParent()
	if parent == nil {
		panic("core: non-leftmost border without a parent") // born in a split
	}
	if parent.child[0].Load() == &n.h {
		parent.h.unlock()
		p.h.unlock()
		n.h.unlock()
		return
	}

	// Unlink n. next's prev pointer is protected by n's (its previous
	// sibling's) lock, which we hold.
	n.h.markSplitting() // range moves to p: readers must retry from the root
	n.h.markDeleted()
	next := n.next.Load()
	p.next.Store(next)
	if next != nil {
		next.prev.Store(p)
	}
	p.h.unlock()
	n.h.unlock()
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
	p.h.markSplitting() // ranges shift: force readers to retry from the root
	for i := idx - 1; i < nk-1; i++ {
		p.keyslice[i].Store(p.keyslice[i+1].Load())
	}
	for i := idx; i < nk; i++ {
		p.child[i].Store(p.child[i+1].Load())
	}
	p.nkeys.Store(int32(nk - 1))
	p.h.unlock()
}

// scheduleCollapse queues a maintenance task to remove the (possibly) empty
// trie layer reached by the given key prefix (a multiple of 8 bytes).
func (t *Tree) scheduleCollapse(prefix []byte) {
	cp := append([]byte(nil), prefix...)
	t.maintMu.Lock()
	t.maint = append(t.maint, cp)
	t.maintMu.Unlock()
}

// PendingMaintenance returns the number of queued layer-collapse tasks.
func (t *Tree) PendingMaintenance() int {
	t.maintMu.Lock()
	defer t.maintMu.Unlock()
	return len(t.maint)
}

// Maintain runs queued maintenance tasks (empty-layer collapse), returning
// how many layers were collapsed. The paper schedules these through
// epoch-based reclamation; the kvstore invokes Maintain from its epoch
// ticker, and tests call it directly.
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
			n.h.unlock()
			return false
		}
		slot := perm.slot(rank)
		if n.keylen(slot) != klLayer {
			n.h.unlock()
			return false
		}
		if len(k) > 8 {
			// Intermediate layer: descend.
			root, k = t.enterLayer(n, slot), k[8:]
			continue
		}

		// Final layer link. Collapse only if the layer is still one empty
		// border node; anything else was revived or grew.
		child := ascendToRoot((*nodeHeader)(n.loadLV(slot)))
		if !isBorder(child.version.Load()) {
			n.h.unlock()
			return false
		}
		b := child.border()
		b.h.lock()
		if isDeleted(b.h.version.Load()) || b.perm().count() != 0 || b.next.Load() != nil {
			b.h.unlock()
			n.h.unlock()
			return false
		}
		b.h.markSplitting()
		b.h.markDeleted()
		b.h.unlock()

		np := perm.remove(rank)
		n.permutation.Store(uint64(np))
		t.stats.LayerCollapses.Add(1)
		if np.count() == 0 {
			t.emptyBorder(n, prefix, len(prefix)/8-1) // unlocks n
		} else {
			n.h.unlock()
		}
		return true
	}
}
