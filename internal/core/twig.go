package core

import (
	"bytes"
	"sync/atomic"
	"unsafe"

	"repro/internal/value"
)

// twigCap is the most keys a twig holds; a fifth key of the slice turns it
// into a trie layer. Of the 59 223 slices of the benchmark's 2 M decimal keys
// that more than one long key shares, 57 340 are shared by two keys, 1 838 by
// three, 44 by four and one by five (DESIGN.md, "the twig"), so four covers
// them, and a twig of four cells is 48 B whether it holds two keys or four.
const twigCap = 4

// A twig is what a border slot points at (keylen klTwig) when a few keys
// longer than eight bytes begin with the slot's slice: in place of a trie
// layer — a 320-byte border node, nearly all of it empty — their remainders
// past the slice, sorted, and one value cell per key.
//
// A twig's shape is published and never mutated. Which keys it holds, their
// order and their bytes are fixed when it is built; a writer that adds or
// removes a key builds a new twig, under the lock of the border that owns
// the slot, and swaps the slot's lv with one atomic store. That is §4.6.1's
// rule for replacing a value, so it needs no version change and forces no
// reader to retry: a reader that loaded the old pointer searches the old
// twig, and what it finds is what the tree held at some instant of its own
// operation (an old twig's cells are never written again, so they hold what
// was current at the swap). Only the cells change in place: an overwrite of
// key j stores into vals[j], again under the border's lock, and readers load
// it atomically. Where lv changes kind — suffix key to twig (makeTwig), twig
// to layer (makeLayer) — the slot goes through klUnstable.
//
// The struct is 48 B, a size class of its own. The remainders live in tiny
// when they fit, so the twig of two decimal keys is that one allocation and
// one or two cache lines; longer ones get a pointer-free allocation of their
// own, rems. TestNodeLayout pins the size.
type twig struct {
	vals [twigCap]unsafe.Pointer // vals[j] is key j's *value.Value; never nil
	rems *byte                   // the encoded remainders (twigKeys), or nil: they are in tiny
	tiny [8]byte
}

// twigKeys is a twig's remainders, encoded: byte 0 holds the number of keys
// in its low nibble and the width w of an offset (1, 2 or 4 bytes, as narrow
// as the total allows) in its high one; then one cumulative end per key; then
// the bytes, in ascending order. Key j is data[end[j-1]:end[j]].
type twigKeys []byte

// twigHeader decodes byte 0 of the encoding.
func twigHeader(b byte) (n, w int) { return int(b & 0xf), int(b >> 4) }

func (k twigKeys) n() int { n, _ := twigHeader(k[0]); return n }

// keysSize is the length of the encoding of n remainders of total bytes
// whose offsets are w bytes wide.
func keysSize(n, w, total int) int { return 1 + n*w + total }

// keys returns the twig's encoded remainders, aliasing the twig.
func (tw *twig) keys() twigKeys {
	if tw.rems == nil {
		return tw.tiny[:]
	}
	// The first byte says how long the offsets are, the last offset how
	// long the bytes.
	n, w := twigHeader(*tw.rems)
	ends := unsafe.Slice(tw.rems, 1+n*w)[1:]
	return unsafe.Slice(tw.rems, keysSize(n, w, offset(ends, w, n-1)))
}

// at returns remainder j, aliasing the encoding.
func (k twigKeys) at(j int) []byte {
	n, w := twigHeader(k[0])
	lo := 0
	if j > 0 {
		lo = offset(k[1:], w, j-1)
	}
	return k[1+n*w:][lo:offset(k[1:], w, j)]
}

// search returns the index of rem among the remainders, or the index it
// would be inserted at.
func (k twigKeys) search(rem []byte) (j int, found bool) {
	for n := k.n(); j < n; j++ {
		if c := bytes.Compare(k.at(j), rem); c >= 0 {
			return j, c == 0
		}
	}
	return j, false
}

// value loads cell j.
func (tw *twig) value(j int) *value.Value {
	return (*value.Value)(atomic.LoadPointer(&tw.vals[j]))
}

// prefetchTwig asks for a twig's 48 bytes, which are not line-aligned and
// may lie across two lines.
func prefetchTwig(tw unsafe.Pointer) {
	prefetchLine(tw)
	prefetchLine(unsafe.Add(tw, unsafe.Sizeof(twig{})-1))
}

// twigEntries is a writer's working copy of a twig's keys, with room for the
// one key too many that turns a twig into a layer. The remainders alias
// their source — the old twig, a suffix bag, the caller's key — and build
// copies them.
type twigEntries struct {
	rem [twigCap + 1][]byte
	val [twigCap + 1]unsafe.Pointer
	n   int
}

// entries copies the twig's keys and the values its cells hold now. The
// caller holds the owning border's lock, so no cell changes meanwhile.
func (tw *twig) entries() (e twigEntries) {
	k := tw.keys()
	for e.n = 0; e.n < k.n(); e.n++ {
		e.rem[e.n], e.val[e.n] = k.at(e.n), atomic.LoadPointer(&tw.vals[e.n])
	}
	return e
}

func (e *twigEntries) insert(j int, rem []byte, v unsafe.Pointer) {
	copy(e.rem[j+1:], e.rem[j:e.n])
	copy(e.val[j+1:], e.val[j:e.n])
	e.rem[j], e.val[j] = rem, v
	e.n++
}

func (e *twigEntries) remove(j int) {
	copy(e.rem[j:], e.rem[j+1:e.n])
	copy(e.val[j:], e.val[j+1:e.n])
	e.n--
}

// build allocates the twig of the entries, which number 1..twigCap.
func (e *twigEntries) build() *twig {
	total := 0
	for _, r := range e.rem[:e.n] {
		total += len(r)
	}
	w := offsetWidth(total)
	tw := &twig{}
	k := twigKeys(tw.tiny[:])
	if size := keysSize(e.n, w, total); size > len(tw.tiny) {
		k = make(twigKeys, size)
		tw.rems = &k[0]
	}
	k[0] = byte(e.n | w<<4)
	data, end := k[1+e.n*w:], 0
	for j, r := range e.rem[:e.n] {
		end += copy(data[end:], r)
		putOffset(k[1:], w, j, end)
		atomic.StorePointer(&tw.vals[j], e.val[j])
	}
	return tw
}

// retype gives slot a link of another kind — a twig where it held a suffix
// key's value, a layer where it held a twig — through klUnstable, so that no
// reader pairs the old key length with the new pointer (§4.6.3: readers
// bracket lv between two loads of keylens). Only the one slot is affected, so
// neither the version nor the permutation changes, and the suffix bag is left
// alone: a dead suffix stays in it, unread, until the next rebuild.
//
//masstree:locked n
func (n *borderNode) retype(slot int, kl uint32, link unsafe.Pointer) {
	n.setKeylen(slot, klUnstable)
	n.storeLV(slot, link)
	n.setKeylen(slot, kl)
}

// makeTwig turns the suffix key in slot of the locked border node n, whose
// suffix is suf, and a new key of the same slice with remainder rem and value
// v into a twig of the two.
//
//masstree:locked n
func (t *Tree) makeTwig(n *borderNode, slot int, suf, rem []byte, v *value.Value) {
	var e twigEntries
	e.insert(0, suf, n.loadLV(slot))
	j := 0
	if bytes.Compare(rem, suf) > 0 {
		j = 1
	}
	e.insert(j, rem, unsafe.Pointer(v))
	n.retype(slot, klTwig, unsafe.Pointer(e.build()))
	t.stats.TwigCreations.Add(1)
}

// makeLayer replaces the full twig in slot of the locked border node n with
// a link to a new trie layer holding e: the twig's keys and the one that did
// not fit (§4.6.3). The layer is built before it is published, through the
// insert path every key takes (putAt) — the remainders may share their next
// slice too, and become a twig or a layer one level down.
//
//masstree:locked n
func (t *Tree) makeLayer(n *borderNode, slot int, e *twigEntries) {
	root := newBorder(true, true) //masstree:acquires root.h
	for j, rem := range e.rem[:e.n] {
		v := (*value.Value)(e.val[j])
		_, _, step, _ := t.putAt(root, rem, 0, func(int, *value.Value) *value.Value { return v })
		if step != stepDone {
			panic("core: a new layer's root had no room for a twig's keys")
		}
	}
	root.h.unlock()
	n.retype(slot, klLayer, unsafe.Pointer(&root.h))
	t.stats.LayerCreations.Add(1)
}
