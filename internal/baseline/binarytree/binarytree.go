// Package binarytree implements the paper's "Binary" baseline (§6.2,
// Figure 8): a fast, concurrent, lock-free binary search tree. Each node
// holds a full key, a value pointer, and two child pointers; lookups are
// lockless descents and inserts publish nodes with compare-and-swap.
//
// Two of Figure 8's ladder steps are options here:
//
//   - WithIntCmp precomputes each key as big-endian 8-byte integer slices so
//     comparisons are native uint64 compares ("+IntCmp", §4.2's trick).
//   - WithArena allocates nodes from chunked slabs. The paper's "+Flow" and
//     "+Superpage" steps swap in the Streamflow allocator and 2 MB pages; Go
//     cannot swap its allocator, and slab placement is the closest analog —
//     fewer allocations and denser node placement (documented substitution,
//     DESIGN.md).
//
// The tree does not rebalance (neither did the paper's; its keys are random,
// which keeps expected depth logarithmic). It implements what Figure 8
// runs, gets and puts; there is no remove.
package binarytree

import (
	"bytes"
	"encoding/binary"
	"sync/atomic"

	"repro/internal/value"
)

// Option configures a Tree.
type Option func(*Tree)

// WithIntCmp enables integer key comparison.
func WithIntCmp() Option { return func(t *Tree) { t.intCmp = true } }

// WithArena enables slab allocation of nodes.
func WithArena() Option { return func(t *Tree) { t.arena = newArena() } }

// Tree is a concurrent lock-free binary search tree.
type Tree struct {
	root   atomic.Pointer[node]
	count  atomic.Int64
	intCmp bool
	arena  *arena
}

// node is a BST node. key and ikey are immutable after construction; val,
// left, and right are accessed atomically.
type node struct {
	key   []byte
	ikey  []uint64 // big-endian 8-byte slices, when intCmp
	val   atomic.Pointer[value.Value]
	left  atomic.Pointer[node]
	right atomic.Pointer[node]
}

// New creates an empty tree.
func New(opts ...Option) *Tree {
	t := &Tree{}
	for _, o := range opts {
		o(t)
	}
	return t
}

func encodeIkey(k []byte) []uint64 {
	out := make([]uint64, 0, (len(k)+7)/8)
	for i := 0; i < len(k); i += 8 {
		var buf [8]byte
		copy(buf[:], k[i:])
		out = append(out, binary.BigEndian.Uint64(buf[:]))
	}
	return out
}

// compare returns the order of search key k relative to n's key. In intCmp
// mode the stored side uses its precomputed big-endian slices and the probe
// side derives each 8-byte chunk on the fly (no allocation), the Go
// equivalent of the paper's native integer comparisons.
func (t *Tree) compare(k []byte, n *node) int {
	if t.intCmp {
		for i := 0; i < len(n.ikey); i++ {
			off := i * 8
			if off >= len(k) {
				return -1 // k is a strict prefix
			}
			var chunk uint64
			if len(k)-off >= 8 {
				chunk = binary.BigEndian.Uint64(k[off:])
			} else {
				var buf [8]byte
				copy(buf[:], k[off:])
				chunk = binary.BigEndian.Uint64(buf[:])
			}
			if chunk < n.ikey[i] {
				return -1
			}
			if chunk > n.ikey[i] {
				return 1
			}
		}
		switch {
		case len(k) < len(n.key):
			return -1
		case len(k) > len(n.key):
			return 1
		}
		return 0
	}
	return bytes.Compare(k, n.key)
}

// Get returns the value for key.
func (t *Tree) Get(key []byte) (*value.Value, bool) {
	n := t.root.Load()
	for n != nil {
		c := t.compare(key, n)
		if c == 0 {
			return n.val.Load(), true
		}
		if c < 0 {
			n = n.left.Load()
		} else {
			n = n.right.Load()
		}
	}
	return nil, false
}

// Put stores v for key, reporting whether it replaced a value.
func (t *Tree) Put(key []byte, v *value.Value) bool {
	for {
		addr := &t.root
		n := addr.Load()
		for n != nil {
			c := t.compare(key, n)
			if c == 0 {
				n.val.Store(v)
				return true
			}
			if c < 0 {
				addr = &n.left
			} else {
				addr = &n.right
			}
			n = addr.Load()
		}
		nn := t.alloc()
		nn.key = append([]byte(nil), key...)
		if t.intCmp {
			nn.ikey = encodeIkey(nn.key)
		}
		nn.val.Store(v)
		if addr.CompareAndSwap(nil, nn) {
			t.count.Add(1)
			return false
		}
		// Lost the race for this slot; retry from the root.
	}
}

// Len returns the number of keys. No figure reads it, but the count stays:
// core.Tree's Put pays the same shared atomic add on every insert, and
// dropping it from the baselines alone would skew Figure 8.
func (t *Tree) Len() int { return int(t.count.Load()) }

func (t *Tree) alloc() *node {
	if t.arena != nil {
		return t.arena.alloc()
	}
	return &node{}
}

// arena is a chunked slab allocator for nodes: the Go-feasible analog of the
// paper's allocator ladder steps (see package comment).
type arena struct {
	chunk atomic.Pointer[arenaChunk]
}

type arenaChunk struct {
	nodes []node
	pos   atomic.Int64
}

const arenaChunkSize = 4096

func newArena() *arena {
	a := &arena{}
	a.chunk.Store(&arenaChunk{nodes: make([]node, arenaChunkSize)})
	return a
}

func (a *arena) alloc() *node {
	for {
		c := a.chunk.Load()
		i := c.pos.Add(1) - 1
		if int(i) < len(c.nodes) {
			return &c.nodes[i]
		}
		fresh := &arenaChunk{nodes: make([]node, arenaChunkSize)}
		a.chunk.CompareAndSwap(c, fresh)
	}
}
