// Package fourtree implements the paper's "4-tree" baseline (§6.2,
// Figure 8): a tree with fanout 4 whose wider nodes nearly halve average
// depth relative to a binary tree and pack the routing information (four
// child pointers plus the first bytes of each key) into the leading cache
// lines.
//
// As in the paper, all internal nodes are full, reads are lockless and never
// retry, and inserts are lock-free using compare-and-swap: internal nodes
// are immutable once published (a k-ary search tree in the style of Brown
// and Helga), and leaves are replaced wholesale through their parent's child
// pointer. The tree never rebalances — 4-tree "would be difficult to
// balance", which is why the paper moves on to B-trees. It implements what
// Figure 8 runs, gets and puts; there is no remove.
package fourtree

import (
	"bytes"
	"encoding/binary"
	"sync/atomic"

	"repro/internal/value"
)

const fanout = 4

// Tree is a concurrent fanout-4 search tree.
type Tree struct {
	root  atomic.Pointer[node]
	count atomic.Int64
}

// node is either an immutable internal node (3 separator keys, 4 children)
// or a leaf (up to 3 sorted keys with values). Leaves are immutable too;
// mutation replaces the leaf via CAS in the parent. leads holds each key's
// first 8 bytes as a big-endian integer — Figure 8's ladder is cumulative,
// so 4-tree includes "+IntCmp"; it also mirrors the paper's layout, where
// the node's first cache line holds "the first 8 bytes of each of its keys".
type node struct {
	leaf  bool
	keys  [][]byte
	leads []uint64
	vals  []*value.Value // leaf only
	kids  [fanout]atomic.Pointer[node]
}

// leadOf derives a key's 8-byte lead integer without allocating.
func leadOf(k []byte) uint64 {
	if len(k) >= 8 {
		return binary.BigEndian.Uint64(k)
	}
	var buf [8]byte
	copy(buf[:], k)
	return binary.BigEndian.Uint64(buf[:])
}

func leadsOf(keys [][]byte) []uint64 {
	out := make([]uint64, len(keys))
	for i, k := range keys {
		out[i] = leadOf(k)
	}
	return out
}

// cmpKey orders probe (k, lead) against stored key i of n: lead integers
// first, bytes only on ties.
func (n *node) cmpKey(k []byte, lead uint64, i int) int {
	switch {
	case lead < n.leads[i]:
		return -1
	case lead > n.leads[i]:
		return 1
	}
	return bytes.Compare(k, n.keys[i])
}

// New creates an empty tree.
func New() *Tree {
	t := &Tree{}
	t.root.Store(&node{leaf: true})
	return t
}

// Len returns the number of keys. No figure reads it, but the conformance
// suite checks it after every operation, and core.Tree's Put pays the same
// shared atomic add on every insert: dropping it here would skew Figure 8.
func (t *Tree) Len() int { return int(t.count.Load()) }

// childIndex routes key k within an internal node: child i holds keys in
// [keys[i-1], keys[i]).
func (n *node) childIndex(k []byte, lead uint64) int {
	i := 0
	for i < len(n.keys) && n.cmpKey(k, lead, i) >= 0 {
		i++
	}
	return i
}

// Get returns the value for key. Reads never retry: every visited node is
// immutable.
func (t *Tree) Get(key []byte) (*value.Value, bool) {
	lead := leadOf(key)
	n := t.root.Load()
	for !n.leaf {
		n = n.kids[n.childIndex(key, lead)].Load()
	}
	for i := range n.keys {
		if n.cmpKey(key, lead, i) == 0 {
			return n.vals[i], true
		}
	}
	return nil, false
}

// Put stores v for key, reporting whether an existing value was replaced.
func (t *Tree) Put(key []byte, v *value.Value) bool {
	for {
		parent, idx, leaf := t.findLeaf(key)
		replacement, replaced := leaf.withPut(key, v)
		if t.swap(parent, idx, leaf, replacement) {
			if !replaced {
				t.count.Add(1)
			}
			return replaced
		}
	}
}

// findLeaf descends to the leaf for key, returning its parent and child
// index (parent nil when the leaf is the root).
func (t *Tree) findLeaf(key []byte) (parent *node, idx int, leaf *node) {
	lead := leadOf(key)
	n := t.root.Load()
	for !n.leaf {
		parent = n
		idx = n.childIndex(key, lead)
		n = n.kids[idx].Load()
	}
	return parent, idx, n
}

// swap installs repl in place of old, via the root pointer or the parent's
// child slot.
func (t *Tree) swap(parent *node, idx int, old, repl *node) bool {
	if parent == nil {
		return t.root.CompareAndSwap(old, repl)
	}
	return parent.kids[idx].CompareAndSwap(old, repl)
}

// withPut returns a replacement for leaf n with key set to v. When the leaf
// overflows it becomes a full internal node over four single-key leaves
// (internal nodes are always created full).
func (n *node) withPut(key []byte, v *value.Value) (*node, bool) {
	lead := leadOf(key)
	for i := range n.keys {
		if n.cmpKey(key, lead, i) == 0 {
			repl := &node{leaf: true, keys: n.keys, leads: n.leads, vals: append([]*value.Value(nil), n.vals...)}
			repl.vals[i] = v
			return repl, true
		}
	}
	keys := make([][]byte, 0, len(n.keys)+1)
	vals := make([]*value.Value, 0, len(n.vals)+1)
	pos := 0
	for pos < len(n.keys) && bytes.Compare(n.keys[pos], key) < 0 {
		pos++
	}
	keys = append(keys, n.keys[:pos]...)
	keys = append(keys, append([]byte(nil), key...))
	keys = append(keys, n.keys[pos:]...)
	vals = append(vals, n.vals[:pos]...)
	vals = append(vals, v)
	vals = append(vals, n.vals[pos:]...)
	if len(keys) < fanout {
		return &node{leaf: true, keys: keys, leads: leadsOf(keys), vals: vals}, false
	}
	// Overflow: build a full internal node with four single-key leaves.
	in := &node{keys: keys[1:], leads: leadsOf(keys[1:])}
	for i := 0; i < fanout; i++ {
		in.kids[i].Store(&node{leaf: true, keys: keys[i : i+1], leads: leadsOf(keys[i : i+1]), vals: vals[i : i+1]})
	}
	return in, false
}
