package core

import (
	"encoding/binary"
	"sync/atomic"
	"unsafe"
)

// width is the B+-tree fanout: keys per node (paper §4.2). The paper's nodes
// of four 64-byte cache lines allow a fanout of 15, which it measured as the
// best total performance, its wide nodes prefetched in one DRAM round trip.
// Ours are five lines (border, 312 B) and four and a half (interior, 272 B →
// the 288 B size class); prefetchNode fetches either in one round trip, for
// the paths that have other work to overlap it with (see borderNode).
const width = 15

// nodeHeader is the common prefix of interior and border nodes: the version
// word and the parent pointer. It must be the first field of both node types
// so that a *nodeHeader can be converted back to the concrete node; the
// isborder version bit discriminates.
//
// A node's parent pointer is protected by the *parent's* lock (§4.5), so an
// interior split can reassign its children's parents without their locks.
type nodeHeader struct {
	version atomic.Uint64
	parent  atomic.Pointer[interiorNode]
}

// border converts the header back to its border node. The caller must know
// (via the isborder bit) that the node is a border node.
func (h *nodeHeader) border() *borderNode { return (*borderNode)(unsafe.Pointer(h)) }

// interior converts the header back to its interior node.
func (h *nodeHeader) interior() *interiorNode { return (*interiorNode)(unsafe.Pointer(h)) }

// interiorNode is an internal B+-tree node (Figure 2): nkeys key slices and
// nkeys+1 children. keyslice[i] is the inclusive lower bound of child[i+1].
// All fields after the header are written only under the node lock and read
// optimistically (validated by version snapshots), hence the atomics.
type interiorNode struct {
	h        nodeHeader
	nkeys    atomic.Int32
	keyslice [width]atomic.Uint64
	child    [width + 1]atomic.Pointer[nodeHeader]
}

// borderNode is a leaf-level node (Figure 2). Border nodes of a tree are
// doubly linked; next/prev speed range queries and are required by concurrent
// remove. A border node's prev pointer is protected by its previous sibling's
// lock; next by its own.
//
// The paper sizes a border node to four prefetched cache lines. Here a wave
// of batched descents prefetches the node each key goes to next, and a scan
// its successor border (DESIGN.md substitution #1); a single-key descent
// does not, so for it the craft is touching fewer lines. The node is 312 B —
// the 320 B size class, which is 64-byte aligned, so five lines — and its
// fields are in the order a lookup reads them: version, permutation, key
// slices and the key-length word in the first three lines, lv in the next
// two, and what only scans, writers and long keys need (next, prev, lowkey,
// the suffix bag, the writer's run state) at the end.
// TestNodeLayout pins the size and the offsets.
//
// lv[i] is the paper's link_or_value union: it holds a *value.Value, or
// when slot i's key length is klTwig a *twig, or when it is klLayer a
// *nodeHeader for the next trie layer. The key length discriminates; lv is
// accessed only with atomic pointer operations.
type borderNode struct {
	h           nodeHeader
	permutation atomic.Uint64
	keyslice    [width]atomic.Uint64

	// keylens packs the fifteen key lengths (0..8, klSuffix, klTwig,
	// klLayer, klUnstable) as 4-bit fields, slot i at bits 4i..4i+3.
	// Writers hold the node lock and load-modify-store; readers load the
	// whole word, so bracketing lv between two loads of it keeps the
	// §4.6.3 transitions (value→UNSTABLE→TWIG, twig→UNSTABLE→LAYER) from
	// tearing the union.
	keylens atomic.Uint64

	lv [width]unsafe.Pointer

	next atomic.Pointer[borderNode]
	prev atomic.Pointer[borderNode]

	// lowSlice/lowOrd form lowkey(n), the inclusive lower bound of the
	// node's key range. lowkey is constant over a node's lifetime (§4.6.4);
	// lowOrd == -1 means negative infinity (the tree's initial, leftmost
	// node, which is never deleted while the tree exists). lowOrd sits
	// below with usedMask, where it costs no padding.
	lowSlice uint64

	// suffixes points at the node's suffix bag (see suffixBag): the bytes
	// past the slice of every klSuffix key, in one immutable allocation.
	// nil when no key of the node has ever been longer than 8 bytes.
	suffixes atomic.Pointer[byte]

	// usedMask tracks slots that have ever held a visible key. Reusing such
	// a slot must dirty the version (inserting) so concurrent readers that
	// located the old key in this slot retry (§4.6.5). Protected by the
	// node lock.
	usedMask uint16
	lowOrd   int8

	// run is the node's ascending-run state, which splitInsert reads to pick
	// its split point: the rank of the last insert in the low nibble and, in
	// the high, how many inserts in a row (up to runSteps) each landed one
	// rank after the one before. One byte of what was tail padding, read and
	// written only under the node lock, by insertSlot and splitInsert.
	run uint8
}

// keylen returns slot's key length. Under the node lock it is exact; an
// optimistic reader validates it like any other word of the node.
func (n *borderNode) keylen(slot int) uint32 { return klAt(n.keylens.Load(), slot) }

// klAt extracts slot's key length from a loaded keylens word.
func klAt(word uint64, slot int) uint32 { return uint32(word >> (4 * uint(slot)) & 0xf) }

// setKeylen stores slot's key length, leaving the other fourteen alone.
//
//masstree:locked n
func (n *borderNode) setKeylen(slot int, kl uint32) {
	sh := 4 * uint(slot)
	n.keylens.Store(n.keylens.Load()&^(0xf<<sh) | uint64(kl)<<sh)
}

// suffixBag is the one allocation that holds a border node's key suffixes.
// It is pointer-free and published-never-mutated: a writer that adds a long
// key (insertSlot, splitInsert) builds a fresh bag from the live klSuffix
// slots plus the new suffix and stores its address in n.suffixes before the
// permutation that makes the key visible. Remove and the suffix→twig
// transition leave the bag alone; their dead bytes go at the next rebuild. So a reader that loads the pointer inside its keylens
// bracket and then validates the node version holds the suffix of every
// slot its snapshot saw as klSuffix, and may compare bytes after validating.
//
// Layout: byte 0 is w, the width in bytes of an offset (1, 2 or 4 — as
// narrow as the total allows); then width+1 little-endian offsets; then the
// bytes. Slot i's suffix is data[off[i]:off[i+1]].
type suffixBag []byte

// bagHeader is the size of the width byte plus the offsets: where the
// suffix bytes start in a bag whose offsets are w bytes wide.
func bagHeader(w int) int { return 1 + (width+1)*w }

// newBag builds the bag holding sufs[slot] for every slot, or returns nil if
// all are empty. The bytes are copied: the tree never retains a caller's
// buffer, nor one bag a part of another.
func newBag(sufs *[width][]byte) *byte {
	total := 0
	for _, s := range sufs {
		total += len(s)
	}
	if total == 0 {
		return nil
	}
	w := offsetWidth(total)
	b := make(suffixBag, bagHeader(w)+total)
	b[0] = byte(w)
	data := b[bagHeader(w):]
	off := 0
	for i, s := range sufs {
		b.putOff(i, off)
		off += copy(data[off:], s)
	}
	b.putOff(width, off)
	return &b[0]
}

func (b suffixBag) putOff(i, off int) { putOffset(b[1:], int(b[0]), i, off) }
func (b suffixBag) off(i int) int     { return offset(b[1:], int(b[0]), i) }

// offsetWidth is the narrowest width in bytes, of 1, 2 and 4, whose offsets
// reach total. putOffset stores off as the i-th of the w-byte little-endian
// offsets at b; offset reads it back. The suffix bag's and the twig's
// encodings share the three.
func offsetWidth(total int) int {
	switch {
	case total > 0xffff:
		return 4
	case total > 0xff:
		return 2
	}
	return 1
}

func putOffset(b []byte, w, i, off int) {
	switch w {
	case 1:
		b[i] = byte(off)
	case 2:
		binary.LittleEndian.PutUint16(b[2*i:], uint16(off))
	default:
		binary.LittleEndian.PutUint32(b[4*i:], uint32(off))
	}
}

func offset(b []byte, w, i int) int {
	switch w {
	case 1:
		return int(b[i])
	case 2:
		return int(binary.LittleEndian.Uint16(b[2*i:]))
	default:
		return int(binary.LittleEndian.Uint32(b[4*i:]))
	}
}

// bagAt recovers the bag from the address newBag returned; the header says
// how long it is.
func bagAt(p *byte) suffixBag {
	if p == nil {
		return nil
	}
	hdr := bagHeader(int(*p))
	return unsafe.Slice(p, hdr+suffixBag(unsafe.Slice(p, hdr)).off(width))
}

// suffix returns slot's suffix, aliasing the bag; nil if it has none.
func (b suffixBag) suffix(slot int) []byte {
	if b == nil {
		return nil
	}
	data := b[bagHeader(int(b[0])):]
	return data[b.off(slot):b.off(slot+1)]
}

// bag returns the node's current suffix bag.
func (n *borderNode) bag() suffixBag { return bagAt(n.suffixes.Load()) }

// newBorder allocates a border node. rootTree marks it the root of a
// (possibly new) B+-tree layer; locked determines whether it starts locked.
func newBorder(rootTree, locked bool) *borderNode {
	n := &borderNode{lowOrd: -1}
	v := borderBit
	if rootTree {
		v |= rootBit
	}
	if locked {
		v |= lockBit
	}
	n.h.initVersion(v)
	n.permutation.Store(uint64(emptyPermutation()))
	return n
}

// newInterior allocates an interior node with the given extra version bits.
func newInterior(bits uint64) *interiorNode {
	n := &interiorNode{}
	n.h.initVersion(bits)
	return n
}

func (n *borderNode) perm() permutation { return permutation(n.permutation.Load()) }

func (n *borderNode) loadLV(slot int) unsafe.Pointer {
	return atomic.LoadPointer(&n.lv[slot])
}

func (n *borderNode) storeLV(slot int, p unsafe.Pointer) {
	atomic.StorePointer(&n.lv[slot], p)
}

func (n *borderNode) casLV(slot int, old, new unsafe.Pointer) bool {
	return atomic.CompareAndSwapPointer(&n.lv[slot], old, new)
}

// searchRank scans the live keys in permutation order for the search key
// (slice, ord). It returns the key's rank if found, or the rank at which the
// key would be inserted. Linear search: the paper found it as fast or faster
// than binary search at this fanout due to locality (§4.8).
//
// The reads race with writers; callers must validate the node version before
// trusting the result.
func (n *borderNode) searchRank(p permutation, slice uint64, ord int) (rank int, found bool) {
	cnt := p.count()
	for rank = 0; rank < cnt; rank++ {
		slot := p.slot(rank)
		ks := n.keyslice[slot].Load()
		if ks < slice {
			continue
		}
		if ks > slice {
			return rank, false
		}
		ko := ordOf(n.keylen(slot))
		if ko < ord {
			continue
		}
		return rank, ko == ord
	}
	return cnt, false
}

// keyGEqLowkey reports whether a key with the given slice is at or beyond
// lowkey(n), i.e. could live in n or to its right. Because splits only ever
// fall on slice boundaries (§4.2: all keys with one slice share a border
// node), lowkey comparisons consider the slice alone: a node whose first key
// is (S, len 3) still owns every key with slice S, including shorter ones
// inserted later.
func (n *borderNode) keyGEqLowkey(slice uint64) bool {
	if n.lowOrd < 0 {
		return true
	}
	return slice >= n.lowSlice
}

// owns reports whether slice falls in n's key range: lowkey(n) <= slice, and
// n's next sibling, if it has one, begins above it. On a locked, undeleted
// node the answer is final — lowkeys never change, next is written only under
// n's own lock, and a node leaves its layer only by being marked deleted
// under its own lock — so such a node is the one a write to slice belongs
// in, however the caller came by it: lockBorder's chase, a batch's run
// (extendRun) and a wave's hint (lockHint) all ask this one question.
func (n *borderNode) owns(slice uint64) bool {
	if !n.keyGEqLowkey(slice) {
		return false
	}
	next := n.next.Load()
	return next == nil || !next.keyGEqLowkey(slice)
}

// childFor returns the child covering the given key slice: child index is
// the number of keys <= slice, since keyslice[i] is the inclusive lower
// bound of child[i+1]. Races are validated by the caller's version checks;
// torn reads can only misroute, never crash, because stale children remain
// structurally valid.
func (in *interiorNode) childFor(slice uint64) *nodeHeader {
	nk := int(in.nkeys.Load())
	if nk < 0 {
		nk = 0
	} else if nk > width {
		nk = width
	}
	i := 0
	for i < nk && slice >= in.keyslice[i].Load() {
		i++
	}
	return in.child[i].Load()
}

// lockParent implements Figure 4's lockedparent: lock n's parent, retrying
// if the parent changes underneath us (an interior split can move n to a new
// parent without n's lock). Returns nil if n is a root. The caller must hold
// n's lock, which pins a nil parent (only n's own split can give it one).
//
//masstree:returns-locked
func (h *nodeHeader) lockParent() *interiorNode {
	for {
		p := h.parent.Load()
		if p == nil {
			return nil
		}
		p.h.lock()
		if h.parent.Load() == p {
			return p
		}
		p.h.unlock()
	}
}

// ascendToRoot walks parent pointers until reaching a node marked isroot
// (or with no parent). Used to recover from stale root pointers after root
// splits, which are repaired lazily (§4.6.4).
func ascendToRoot(h *nodeHeader) *nodeHeader {
	for !isRoot(h.version.Load()) {
		p := h.parent.Load()
		if p == nil {
			return h
		}
		h = &p.h
	}
	return h
}

// findBorder descends from root to the border node responsible for the key
// slice, using hand-over-hand version validation (Figure 6): a child's
// version is loaded before double-checking the parent's, so any split that
// could have moved the key is detected. A split retries from the root
// (counted in Stats.RootRetries); other changes retry from the current node
// (Stats.LocalRetries).
func (t *Tree) findBorder(root *nodeHeader, slice uint64) (*borderNode, uint64) {
retry:
	n := root
	v := n.stable()
	if !isRoot(v) {
		root = ascendToRoot(root)
		goto retry
	}
	for {
		if isBorder(v) {
			return n.border(), v
		}
		n1 := n.interior().childFor(slice)
		if n1 == nil {
			// Mid-shift or deleted interior; revalidate and retry.
			v1 := n.stable()
			if vsplit(v1) != vsplit(v) {
				t.stats.RootRetries.Add(1)
				goto retry
			}
			v = v1
			t.stats.LocalRetries.Add(1)
			continue
		}
		v1 := n1.stable()
		if !changed(n.version.Load(), v) {
			n = n1
			v = v1
			continue
		}
		v2 := n.stable()
		if vsplit(v2) != vsplit(v) {
			t.stats.RootRetries.Add(1)
			goto retry // split moved our range; retry from the root
		}
		v = v2 // an insert; retry from this node
		t.stats.LocalRetries.Add(1)
	}
}
