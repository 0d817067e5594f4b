// Package btree implements the paper's concurrent B+-tree baseline (§6.2
// Figure 8 "B-tree" and "+Permuter"; §6.4; Figure 9): a width-15 B+-tree
// using the same optimistic concurrency control scheme as Masstree but
// storing whole keys instead of a trie of slices. A node holds each key's
// first 8 bytes as an integer (its lead) inline, beside a pointer to a
// separately allocated, immutable key object (bkey): the key's first 16
// bytes, and for a longer key a pointer to the whole key. Figure 8's ladder
// is cumulative, so the leads decide most comparisons in the node
// ("+IntCmp"), and a bkey is loaded only when two leads are equal. Keys
// longer than 16 bytes whose first 16 bytes are equal still chase the whole
// key as well — the extra DRAM fetch that motivates Masstree's design
// (Figure 9's gap).
//
// WithPermuter publishes inserts through an atomic permutation word as
// Masstree does (§4.6.2); without it, inserts shift the sorted key array in
// place under the inserting dirty bit and force concurrent readers to retry,
// which is the plain "B-tree" bar. Figure 8's "+Prefetch" rung has no option
// here: the tree prefetches nothing, so that row is B-tree's.
//
// Gets are lock-free; puts lock only affected nodes; splits use
// hand-over-hand locking up the tree. Border nodes are B-link-chained with
// constant lowkeys. The tree implements what the figures run, gets and puts;
// there is no remove.
package btree

import (
	"bytes"
	"encoding/binary"
	"sync/atomic"
	"unsafe"

	"repro/internal/occ"
	"repro/internal/value"
)

const (
	width     = 15
	inlineLen = 16
)

// Option configures a Tree.
type Option func(*Tree)

// WithPermuter enables permutation-based insert publication ("+Permuter").
func WithPermuter() Option { return func(t *Tree) { t.permuter = true } }

// bkey is an immutable stored key: an inline prefix plus, for keys longer
// than 16 bytes, the complete key in a separately-allocated block. Its lead
// lives in the node beside the pointer to it.
type bkey struct {
	inline [inlineLen]byte
	ilen   uint8
	long   bool
	full   []byte // set only when long
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

func makeKey(k []byte) *bkey {
	b := &bkey{}
	if len(k) <= inlineLen {
		b.ilen = uint8(len(k))
		copy(b.inline[:], k)
		return b
	}
	b.ilen = inlineLen
	copy(b.inline[:], k[:inlineLen])
	b.long = true
	b.full = append([]byte(nil), k...)
	return b
}

// compare orders search key k, whose lead is kl, against the stored key
// whose lead is sl and whose bkey sits in sk. Unequal leads decide without
// touching sk; only equal leads load the bkey. A nil bkey, a slot read while
// the node changes, orders after k; the caller's version check retries.
func compare(kl uint64, k []byte, sl uint64, sk *atomic.Pointer[bkey]) int {
	switch {
	case kl < sl:
		return -1
	case kl > sl:
		return 1
	}
	b := sk.Load()
	if b == nil {
		return -1
	}
	return b.compareBytes(k)
}

// compareBytes is the byte-wise comparison used after lead integers tie.
func (b *bkey) compareBytes(k []byte) int {
	n := min(len(k), inlineLen)
	if c := bytes.Compare(k[:n], b.inline[:b.ilen]); c != 0 {
		return c
	}
	// The inline prefixes are equal, so n == ilen.
	switch {
	case !b.long && len(k) <= inlineLen:
		return 0
	case !b.long:
		return 1 // b is a 16-byte prefix of k
	case len(k) <= inlineLen:
		return -1 // k is a 16-byte prefix of b
	default:
		// Both long: the expensive full-key fetch.
		return bytes.Compare(k, b.full)
	}
}

func (b *bkey) bytes() []byte {
	if b.long {
		return b.full
	}
	return b.inline[:b.ilen]
}

type nodeHeader struct {
	occ.Version
	parent atomic.Pointer[interiorNode]
}

func (h *nodeHeader) border() *borderNode     { return (*borderNode)(unsafe.Pointer(h)) }
func (h *nodeHeader) interior() *interiorNode { return (*interiorNode)(unsafe.Pointer(h)) }

type interiorNode struct {
	h     nodeHeader
	nkeys atomic.Int32
	lead  [width]atomic.Uint64 // keys[i]'s lead
	keys  [width]atomic.Pointer[bkey]
	child [width + 1]atomic.Pointer[nodeHeader]
}

type borderNode struct {
	h    nodeHeader
	next atomic.Pointer[borderNode]

	// permutation publishes insert order when the permuter is enabled;
	// otherwise nkeys plus the sorted key array are maintained in place.
	permutation atomic.Uint64
	nkeys       atomic.Int32

	// lowLead and lowkey are set before the node is linked and never change;
	// lowkey is nil (-inf) only in the leftmost border, which is no node's next.
	lowLead uint64
	lowkey  atomic.Pointer[bkey]

	lead [width]atomic.Uint64 // keys[i]'s lead
	keys [width]atomic.Pointer[bkey]
	vals [width]atomic.Pointer[value.Value]

	// used tracks slots that ever held a visible key (permuter mode);
	// protected by the node lock (§4.6.5 slot-reuse hazard).
	used uint16
}

// Tree is a concurrent B+-tree over whole keys.
type Tree struct {
	root     atomic.Pointer[nodeHeader]
	count    atomic.Int64
	permuter bool
}

// New creates an empty tree.
func New(opts ...Option) *Tree {
	t := &Tree{}
	for _, o := range opts {
		o(t)
	}
	b := &borderNode{}
	b.h.Init(occ.BorderBit | occ.RootBit)
	b.permutation.Store(uint64(emptyPerm))
	t.root.Store(&b.h)
	return t
}

// Len returns the number of keys. No figure reads it, but the count stays:
// core.Tree's Put pays the same shared atomic add on every insert, and
// dropping it from the baselines alone would skew Figure 8.
func (t *Tree) Len() int { return int(t.count.Load()) }

// ---- permutation helpers (subset of Masstree's, §4.6.2) ----

type perm uint64

var emptyPerm = func() perm {
	var p uint64
	for i := 0; i < width; i++ {
		p |= uint64(i) << (4 * uint(i+1))
	}
	return perm(p)
}()

func (p perm) count() int        { return int(p & 0xf) }
func (p perm) slot(rank int) int { return int(p >> (4 * uint(rank+1)) & 0xf) }

func (p perm) insert(rank int) (perm, int) {
	n := p.count()
	var a [width]int
	for i := 0; i < width; i++ {
		a[i] = p.slot(i)
	}
	slot := a[n]
	copy(a[rank+1:n+1], a[rank:n])
	a[rank] = slot
	q := uint64(n + 1)
	for i := 0; i < width; i++ {
		q |= uint64(a[i]) << (4 * uint(i+1))
	}
	return perm(q), slot
}
