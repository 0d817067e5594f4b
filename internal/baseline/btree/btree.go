// Package btree implements the paper's concurrent B+-tree baseline (§6.2
// Figure 8 "B-tree", "+Prefetch", "+Permuter"; §6.4; Figure 9): a width-15
// B+-tree using the same optimistic concurrency control scheme as Masstree
// but storing whole keys instead of a trie of slices. Each node has space
// for the first 16 bytes of each key inline; longer keys keep a pointer to
// the full key, and comparisons that exhaust the inline prefix must chase
// that pointer — the extra DRAM fetch that motivates Masstree's design
// (Figure 9's gap).
//
// Options mirror the paper's ladder:
//
//   - WithPermuter publishes inserts through an atomic permutation word as
//     Masstree does (§4.6.2); without it, inserts shift the sorted key array
//     in place under the inserting dirty bit and force concurrent readers to
//     retry, which is the plain "B-tree" bar.
//   - WithPrefetch is accepted for completeness and is a documented no-op:
//     Go exposes no prefetch intrinsic, and no node here or in internal/core
//     is the paper's four cache lines (DESIGN.md substitution #1).
//
// Gets are lock-free; puts lock only affected nodes; splits use
// hand-over-hand locking up the tree. Border nodes are B-link-chained with
// constant lowkeys. Remove shrinks nodes but (unlike Masstree) never
// deletes them — the paper's baseline needed only get/put workloads.
package btree

import (
	"bytes"
	"encoding/binary"
	"sync/atomic"
	"unsafe"

	"repro/internal/baseline/occ"
)

const (
	width     = 15
	inlineLen = 16
)

// Option configures a Tree.
type Option func(*Tree)

// WithPermuter enables permutation-based insert publication ("+Permuter").
func WithPermuter() Option { return func(t *Tree) { t.permuter = true } }

// WithPrefetch is the "+Prefetch" rung; a documented no-op in Go.
func WithPrefetch() Option { return func(t *Tree) { t.prefetch = true } }

// bkey is an immutable stored key: an inline prefix plus, for keys longer
// than 16 bytes, the complete key in a separately-allocated block. lead is
// the first 8 bytes as a big-endian integer — Figure 8's ladder is
// cumulative, so the B-tree rungs include the "+IntCmp" comparison trick.
type bkey struct {
	lead   uint64
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
	b := &bkey{lead: leadOf(k)}
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

// compare orders search key k against b: the lead integers decide most
// comparisons (+IntCmp); equal leads fall back to byte comparison, and only
// equal-prefix long keys dereference the full key.
func (b *bkey) compare(k []byte) int {
	lead := leadOf(k)
	if lead < b.lead {
		return -1
	}
	if lead > b.lead {
		return 1
	}
	return b.compareBytes(k)
}

// compareBytes is the byte-wise comparison used after lead integers tie.
func (b *bkey) compareBytes(k []byte) int {
	n := len(k)
	if n > inlineLen {
		n = inlineLen
	}
	if c := bytes.Compare(k[:n], b.inline[:b.ilen]); c != 0 {
		return c
	}
	// Inline prefixes equal (up to the shorter).
	switch {
	case len(k) <= inlineLen && !b.long:
		// Both fully inline: prefixes equal, compare lengths.
		switch {
		case len(k) < int(b.ilen):
			return -1
		case len(k) > int(b.ilen):
			return 1
		}
		return 0
	case len(k) <= inlineLen:
		// k fully inline, b longer. If k is shorter than the prefix the
		// byte compare already decided; here k >= prefix length.
		return -1
	case !b.long:
		return 1
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
	version occ.Version
	parent  atomic.Pointer[interiorNode]
}

func (h *nodeHeader) border() *borderNode     { return (*borderNode)(unsafe.Pointer(h)) }
func (h *nodeHeader) interior() *interiorNode { return (*interiorNode)(unsafe.Pointer(h)) }

type interiorNode struct {
	h     nodeHeader
	nkeys atomic.Int32
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

	lowkey *bkey // immutable; nil = -inf

	keys [width]atomic.Pointer[bkey]
	vals [width]unsafe.Pointer

	// used tracks slots that ever held a visible key (permuter mode);
	// protected by the node lock (§4.6.5 slot-reuse hazard).
	used uint16
}

// Tree is a concurrent B+-tree over whole keys.
type Tree struct {
	root     atomic.Pointer[nodeHeader]
	count    atomic.Int64
	permuter bool
	prefetch bool
}

// New creates an empty tree.
func New(opts ...Option) *Tree {
	t := &Tree{}
	for _, o := range opts {
		o(t)
	}
	b := &borderNode{}
	b.h.version.Init(occ.BorderBit | occ.RootBit)
	b.permutation.Store(uint64(emptyPerm))
	t.root.Store(&b.h)
	return t
}

// Len returns the number of keys.
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

func (p perm) remove(rank int) perm {
	n := p.count()
	var a [width]int
	for i := 0; i < width; i++ {
		a[i] = p.slot(i)
	}
	slot := a[rank]
	copy(a[rank:n-1], a[rank+1:n])
	a[n-1] = slot
	q := uint64(n - 1)
	for i := 0; i < width; i++ {
		q |= uint64(a[i]) << (4 * uint(i+1))
	}
	return perm(q)
}
