// Package core implements Masstree, the paper's central data structure
// (§4): a trie with fanout 2^64 in which each trie node is a B+-tree of
// width 15. Each trie layer is indexed by a successive 8-byte slice of the
// key, so arbitrary-length binary keys — including keys with long shared
// prefixes — are handled efficiently while keys remain in sorted order for
// range queries.
//
// Concurrency follows the paper: get operations take no locks, validating
// per-node version words before and after reading node contents (optimistic
// concurrency control). They write shared memory in three places only:
// rootHeader CASes the tree's cached layer-0 root and resolveLayer a border's
// stale layer link (§4.6.4's lazy repair, each to the pointer any reader
// would compute), and the retry and fallback counters in Stats are shared
// atomic adds. Writers take only node-local spinlocks, publish border-node
// inserts through an atomic permutation word, and coordinate splits and
// removes with readers through split version counters and hand-over-hand
// validation.
//
// Values are *value.Value pointers; multi-column read-modify-writes execute
// under the owning border node's lock, making them atomic with respect to
// concurrent readers (§4.7).
package core

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/value"
)

// Tree is a Masstree. It is safe for concurrent use by any number of
// readers and writers. The zero Tree is not usable; call New.
type Tree struct {
	root  atomic.Pointer[nodeHeader]
	count atomic.Int64
	stats Stats

	// maintenance tasks deferred by remove (§4.6.5): byte prefixes of trie
	// layers that may have become empty and should be collapsed.
	maintMu sync.Mutex
	maint   [][]byte
}

// New creates an empty Masstree. The trie's layer-0 root starts as a single
// empty border node; per §4.6.4 this initial node always remains the
// leftmost node of its tree and is never deleted.
func New() *Tree {
	t := &Tree{}
	root := newBorder(true, false)
	t.root.Store(&root.h)
	return t
}

// rootHeader returns the current layer-0 root, repairing the cached pointer
// if a root split left it stale (the paper updates the layer-0 global root
// immediately; doing it lazily here is equivalent because every descent
// re-validates the isroot bit).
func (t *Tree) rootHeader() *nodeHeader {
	h := t.root.Load()
	r := ascendToRoot(h)
	if r != h {
		t.root.CompareAndSwap(h, r)
	}
	return r
}

// Len returns the number of keys in the tree.
func (t *Tree) Len() int { return int(t.count.Load()) }

// Stats returns a snapshot of operation counters; see Stats.
func (t *Tree) Stats() StatsSnapshot { return t.stats.snapshot() }

// resolveLayer loads the next-layer root from a border slot and repairs the
// stored pointer if a layer-root split left it stale (§4.6.4: roots stored
// in border nodes' next_layer pointers are updated lazily during later
// operations).
func (t *Tree) resolveLayer(n *borderNode, slot int, lv unsafe.Pointer) *nodeHeader {
	h := (*nodeHeader)(lv)
	r := ascendToRoot(h)
	if r != h {
		n.casLV(slot, lv, unsafe.Pointer(r))
	}
	return r
}

// Get returns the value stored for key (§3: get). It takes no locks, and
// writes shared memory only where the package comment says a reader may:
// repairing a stale root (rootHeader) or layer link (resolveLayer), and
// counting a retry.
//
//masstree:noalloc
func (t *Tree) Get(key []byte) (*value.Value, bool) {
restart:
	root := t.rootHeader()
	k := key
	for {
		slice := keySlice(k)
		ord := keyOrd(k)
		n, v := t.findBorder(root, slice)
	forward:
		if isDeleted(v) {
			// The node was removed; its keys (none — only empty nodes are
			// deleted) and range moved. Retry the whole operation (§4.6.5).
			t.stats.RootRetries.Add(1)
			goto restart
		}
		perm := n.perm()
		rank, found := n.searchRank(perm, slice, ord)
		var (
			slot int
			kl   uint32
			lvp  unsafe.Pointer
			bag  *byte
		)
		if found {
			slot = perm.slot(rank)
			kl, lvp, bag = n.readSlot(slot)
		}
		if v2 := n.h.version.Load(); changed(v2, v) {
			// The node changed while we read it. Re-stabilize and chase
			// border links right: a concurrent split only ever moves keys
			// to new right siblings (Figure 7).
			t.stats.LocalRetries.Add(1)
			v = n.h.stable()
			for !isDeleted(v) {
				next := n.next.Load()
				if next == nil || !next.keyGEqLowkey(slice) {
					break
				}
				n = next
				v = n.h.stable()
			}
			goto forward
		}
		if !found {
			return nil, false
		}
		switch kl {
		case klLayer:
			root = t.resolveLayer(n, slot, lvp)
			k = k[8:]
			continue
		case klUnstable:
			goto forward
		}
		// The validated snapshot says which value, suffix key or twig the
		// slot held: look the key up in it.
		val, _, _, ok := lookup(kl, lvp, bag, slot, k)
		return val, ok
	}
}
