// Package seqtree is the single-core Masstree variant of §6.4: the same
// trie-of-B+-trees design — width-15 nodes, 8-byte key slices compared as
// big-endian integers, per-slice suffixes, trie layers for conflicting
// suffixes — but with locking, node versions, and interlocked instructions
// removed. The paper measured concurrent Masstree within 13% of this
// variant on one core; it is also the per-partition store of the
// hard-partitioned configuration (§6.6), where each instance is owned by a
// single core. It implements what those experiments run, gets and puts;
// there is no remove or scan.
//
// Not safe for concurrent use.
package seqtree

import (
	"bytes"
	"encoding/binary"

	"repro/internal/value"
)

const width = 15

const (
	klSuffix uint8 = 9  // key longer than 8 bytes: slice + stored suffix
	klLayer  uint8 = 10 // slot links to a deeper trie layer
)

func keySlice(k []byte) uint64 {
	if len(k) >= 8 {
		return binary.BigEndian.Uint64(k)
	}
	var buf [8]byte
	copy(buf[:], k)
	return binary.BigEndian.Uint64(buf[:])
}

func keyOrd(k []byte) int {
	if len(k) <= 8 {
		return len(k)
	}
	return 9
}

func ordOf(kl uint8) int {
	if kl <= 8 {
		return int(kl)
	}
	return 9
}

// node is either an interior or border node of one layer's B+-tree.
type node struct {
	border bool
	nkeys  int
	slices [width]uint64

	// interior
	child [width + 1]*node

	// border
	keylen [width]uint8
	suffix [width][]byte
	val    [width]*value.Value
	layer  [width]*node
}

// Tree is a sequential Masstree.
type Tree struct {
	root  *node
	count int
}

// New creates an empty tree.
func New() *Tree {
	return &Tree{root: &node{border: true}}
}

// Len returns the number of keys. No figure reads it, but the conformance
// suite checks it after every operation, and core.Tree's Put counts every
// insert: dropping the count here would skew the comparison.
func (t *Tree) Len() int { return t.count }

// descend walks interior nodes to the border node owning slice.
func descend(n *node, slice uint64) *node {
	for !n.border {
		i := 0
		for i < n.nkeys && slice >= n.slices[i] {
			i++
		}
		n = n.child[i]
	}
	return n
}

// search finds (slice, ord) in border node n; rank is the insertion point
// when not found.
func (n *node) search(slice uint64, ord int) (rank int, found bool) {
	for rank = 0; rank < n.nkeys; rank++ {
		if n.slices[rank] < slice {
			continue
		}
		if n.slices[rank] > slice {
			return rank, false
		}
		ko := ordOf(n.keylen[rank])
		if ko < ord {
			continue
		}
		return rank, ko == ord
	}
	return rank, false
}

// Get returns the value for key.
func (t *Tree) Get(key []byte) (*value.Value, bool) {
	root := t.root
	k := key
	for {
		n := descend(root, keySlice(k))
		rank, found := n.search(keySlice(k), keyOrd(k))
		if !found {
			return nil, false
		}
		switch n.keylen[rank] {
		case klLayer:
			root = n.layer[rank]
			k = k[8:]
		case klSuffix:
			if !bytes.Equal(n.suffix[rank], k[8:]) {
				return nil, false
			}
			return n.val[rank], true
		default:
			return n.val[rank], true
		}
	}
}

// Put stores v for key, returning the replaced value if any.
func (t *Tree) Put(key []byte, v *value.Value) (*value.Value, bool) {
	var old *value.Value
	replaced := false
	t.Update(key, func(o *value.Value) *value.Value {
		old, replaced = o, o != nil
		return v
	})
	return old, replaced
}

// Update performs a read-modify-write: f receives the current value (nil if
// absent) and returns the value to store.
func (t *Tree) Update(key []byte, f func(*value.Value) *value.Value) {
	rootp := &t.root
	k := key
	for {
		n := descend(*rootp, keySlice(k))
		slice, ord := keySlice(k), keyOrd(k)
		rank, found := n.search(slice, ord)
		if found {
			switch n.keylen[rank] {
			case klLayer:
				rootp = &n.layer[rank]
				k = k[8:]
				continue
			case klSuffix:
				if bytes.Equal(n.suffix[rank], k[8:]) {
					n.val[rank] = f(n.val[rank])
					return
				}
				// Conflicting suffix: push the old key down a layer and
				// continue inserting there (§4.6.3's sequential analog).
				l := &node{border: true, nkeys: 1}
				suf := n.suffix[rank]
				l.slices[0] = keySlice(suf)
				if len(suf) <= 8 {
					l.keylen[0] = uint8(len(suf))
				} else {
					l.keylen[0] = klSuffix
					l.suffix[0] = suf[8:]
				}
				l.val[0] = n.val[rank]
				n.keylen[rank] = klLayer
				n.layer[rank] = l
				n.suffix[rank] = nil
				n.val[rank] = nil
				rootp = &n.layer[rank]
				k = k[8:]
				continue
			default:
				n.val[rank] = f(n.val[rank])
				return
			}
		}
		// Insert.
		t.count++
		v := f(nil)
		if n.nkeys < width {
			n.insertAt(rank, slice, k, v)
			return
		}
		t.splitInsert(rootp, n, rank, slice, k, v)
		return
	}
}

func (n *node) insertAt(rank int, slice uint64, k []byte, v *value.Value) {
	copy(n.slices[rank+1:], n.slices[rank:n.nkeys])
	copy(n.keylen[rank+1:], n.keylen[rank:n.nkeys])
	copy(n.suffix[rank+1:], n.suffix[rank:n.nkeys])
	copy(n.val[rank+1:], n.val[rank:n.nkeys])
	copy(n.layer[rank+1:], n.layer[rank:n.nkeys])
	n.slices[rank] = slice
	n.layer[rank] = nil
	if len(k) <= 8 {
		n.keylen[rank] = uint8(len(k))
		n.suffix[rank] = nil
	} else {
		n.keylen[rank] = klSuffix
		n.suffix[rank] = append([]byte(nil), k[8:]...)
	}
	n.val[rank] = v
	n.nkeys++
}

// splitInsert splits full border node n (within the layer tree rooted at
// *rootp) and inserts the pending key, growing interior levels as needed.
// Splits fall on slice boundaries so slice groups stay together.
func (t *Tree) splitInsert(rootp **node, n *node, rank int, slice uint64, k []byte, v *value.Value) {
	// Build the 16-entry sequence.
	type ent struct {
		slice  uint64
		keylen uint8
		suffix []byte
		val    *value.Value
		layer  *node
	}
	var ents [width + 1]ent
	for i := 0; i < width; i++ {
		pos := i
		if i >= rank {
			pos = i + 1
		}
		ents[pos] = ent{n.slices[i], n.keylen[i], n.suffix[i], n.val[i], n.layer[i]}
	}
	ents[rank] = ent{slice: slice, val: v}
	if len(k) <= 8 {
		ents[rank].keylen = uint8(len(k))
	} else {
		ents[rank].keylen = klSuffix
		ents[rank].suffix = append([]byte(nil), k[8:]...)
	}
	total := width + 1
	// The boundary must fall where the slice changes so slice groups stay
	// together (§4.2); search outward from the middle.
	splitAt := -1
	for d := 0; d < total; d++ {
		if b := total/2 + d; b > 0 && b < total && ents[b-1].slice != ents[b].slice {
			splitAt = b
			break
		}
		if b := total/2 - d; b > 0 && b < total && ents[b-1].slice != ents[b].slice {
			splitAt = b
			break
		}
	}
	if splitAt < 0 {
		panic("seqtree: slice group wider than fanout")
	}

	n2 := &node{border: true}
	for i, e := range ents[splitAt:total] {
		n2.slices[i], n2.keylen[i], n2.suffix[i], n2.val[i], n2.layer[i] = e.slice, e.keylen, e.suffix, e.val, e.layer
	}
	n2.nkeys = total - splitAt
	for i, e := range ents[:splitAt] {
		n.slices[i], n.keylen[i], n.suffix[i], n.val[i], n.layer[i] = e.slice, e.keylen, e.suffix, e.val, e.layer
	}
	n.nkeys = splitAt
	for i := splitAt; i < width; i++ { // clear stale tails for GC
		n.suffix[i], n.val[i], n.layer[i] = nil, nil, nil
	}

	t.insertUp(rootp, n, n2, n2.slices[0])
}

// insertUp links the new right sibling under n's parent, splitting interior
// nodes recursively. Parents are located by path search from the layer root
// (sequential trees keep no parent pointers).
func (t *Tree) insertUp(rootp **node, left, right *node, sep uint64) {
	if *rootp == left {
		r := &node{nkeys: 1}
		r.slices[0] = sep
		r.child[0], r.child[1] = left, right
		*rootp = r
		return
	}
	path := pathTo(*rootp, left)
	for i := len(path) - 1; i >= 0; i-- {
		p := path[i]
		pos := 0
		for pos < p.nkeys && p.slices[pos] < sep {
			pos++
		}
		if p.nkeys < width {
			copy(p.slices[pos+1:], p.slices[pos:p.nkeys])
			copy(p.child[pos+2:], p.child[pos+1:p.nkeys+1])
			p.slices[pos] = sep
			p.child[pos+1] = right
			p.nkeys++
			return
		}
		// Split interior p.
		var keys [width + 1]uint64
		var kids [width + 2]*node
		copy(keys[:pos], p.slices[:pos])
		keys[pos] = sep
		copy(keys[pos+1:], p.slices[pos:p.nkeys])
		copy(kids[:pos+1], p.child[:pos+1])
		kids[pos+1] = right
		copy(kids[pos+2:], p.child[pos+1:p.nkeys+1])
		total := width + 1
		mid := total / 2
		promoted := keys[mid]
		p2 := &node{}
		copy(p2.slices[:], keys[mid+1:total])
		copy(p2.child[:], kids[mid+1:total+1])
		p2.nkeys = total - mid - 1
		copy(p.slices[:], keys[:mid])
		copy(p.child[:], kids[:mid+1])
		p.nkeys = mid
		for j := mid + 1; j <= width; j++ {
			p.child[j] = nil // release moved children for GC
		}
		left, right, sep = p, p2, promoted
		if i == 0 {
			r := &node{nkeys: 1}
			r.slices[0] = sep
			r.child[0], r.child[1] = left, right
			*rootp = r
			return
		}
	}
}

// pathTo returns target's ancestor chain (root first). Routing follows
// target's smallest slice, which uniquely locates it: slice groups never
// straddle nodes, so the node holding a slice is unique.
func pathTo(root, target *node) []*node {
	slice := target.slices[0]
	var path []*node
	n := root
	for !n.border && n != target {
		path = append(path, n)
		i := 0
		for i < n.nkeys && slice >= n.slices[i] {
			i++
		}
		n = n.child[i]
	}
	return path
}
