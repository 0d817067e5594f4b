package core

import (
	"slices"
	"unsafe"

	"repro/internal/occ"
	"repro/internal/value"
)

// BatchScratch holds the reusable state of the batched operations so a
// steady-state caller (one scratch per worker/connection) performs no
// allocations per batch: the cursors of a wave (see wave), and for a batch
// with puts in it each put's border hint and the puts' tree-order index
// permutation. The zero value is ready to use.
type BatchScratch struct {
	idx    []int        // the batch's puts, as indexes into keys, in tree order
	slices []uint64     // keySlice(keys[i]) for every put i
	hints  []borderHint // hints[i] is put i's; zeroed when the batch ends
	cur    [waveWidth]waveCursor
}

// A borderHint is what a wave learned about one key that a later pass may
// start from without trusting: the border its descent ended at, and how many
// bytes of the key the layers above that border consumed. The zero hint says
// nothing. A hint is good for the key it was taken for and no other — the
// offset says which layer n is in only for a key that was routed there — and
// whoever uses one re-establishes under n's lock (lockHint), or under a
// version it validates, everything the wave once saw.
type borderHint struct {
	n   *borderNode
	off int
}

// hint is what a finished cursor has to offer: nothing if it met a writer.
func (c *waveCursor) hint() borderHint {
	if c.state == waveFallback {
		return borderHint{}
	}
	return borderHint{n: c.n.border(), off: c.off}
}

// GetBatchInto looks up many keys in one call — the paper's PALM-inspired
// batched lookup (§4.8), which exists to overlap the DRAM fetches of
// different keys' descents — writing vals[i], found[i] for keys[i] into
// caller-provided slices (which must have len(keys) elements) and scratch;
// it performs no allocations. It is BatchInto with no put among the keys.
//
//masstree:noalloc
func (t *Tree) GetBatchInto(keys [][]byte, vals []*value.Value, found []bool, sc *BatchScratch) {
	t.BatchInto(keys, nil, vals, found, sc, nil)
}

// BatchInto is the batched point operation (§4.8's PALM-style batching):
// lookups and read-modify-writes of many keys in one call, all of whose
// descents overlap. put[i] says that keys[i] is to be written through apply;
// the other keys are looked up into vals and found, which must have
// len(keys) elements. A nil put means no key is a put (GetBatchInto); nil
// vals and found mean every key is one (PutBatchInto).
//
// The batch is cut into groups of waveWidth keys and each group descends as
// one wave: every key's next node is being fetched while the others take
// their hop. What a wave finds is a lookup's answer and a put's hint.
//
// A lookup whose descent meets a concurrent writer is not retried here: it
// is looked up again with Get once the wave is over (counted in
// Stats.BatchFallbacks), so Get remains the one statement of the read
// protocol, and every result — fast or slow — is one Get would have
// returned at some instant during the call, before any put of the batch was
// applied.
//
// The puts are then applied in tree order, so that every maximal run of
// them that resolves to the same border node is applied under a single
// acquisition of that node's lock, amortizing the lock word's cache-line
// bounce across the run; and each run begins at the border the wave found
// for its first key, locked and checked (lockHint), not at the root.
//
// apply is called once per put, under the owning border node's lock, with
// the key's original batch index and its current value (nil if absent), and
// returns the value to store — exactly Update's contract (§4.7): returning
// nil declines the write and leaves the key untouched (conditional puts),
// so multi-column puts stay atomic and version assignment or version
// comparison can happen under the lock (§5). Puts of one key are applied in
// input order (see compare); operations on different keys promise no order.
// PutBefore tells a caller that wants more — a lookup that sees the batch's
// own earlier put of its key — which put that is.
//
//masstree:noalloc
func (t *Tree) BatchInto(keys [][]byte, put []bool, vals []*value.Value, found []bool, sc *BatchScratch, apply func(i int, old *value.Value) *value.Value) {
	allPut := vals == nil
	if allPut || put != nil {
		sc.hints = slices.Grow(sc.hints[:0], len(keys))[:len(keys)]
	}
	for lo := 0; lo < len(keys); lo += waveWidth {
		group := keys[lo:min(lo+waveWidth, len(keys))]
		t.wave(group, &sc.cur)
		for i, k := range group {
			c := &sc.cur[i]
			switch {
			case allPut || put != nil && put[lo+i]:
				h := c.hint()
				sc.hints[lo+i] = h
				// lockHint will ask owns, and owns the successor's lowkey: a
				// line the descent had no reason to fetch.
				if h.n != nil {
					if next := h.n.next.Load(); next != nil {
						prefetchLine(unsafe.Pointer(&next.lowSlice))
					}
				}
			case c.state == waveFallback:
				t.stats.BatchFallbacks.Add(1)
				vals[lo+i], found[lo+i] = t.Get(k)
			default:
				vals[lo+i], found[lo+i] = (*value.Value)(c.val), c.state == waveFound
			}
		}
	}
	if !allPut && put == nil {
		sc.idx = sc.idx[:0] // no puts: PutBefore has none to find
		return
	}
	sc.order(keys, put)
	for pos := 0; pos < len(sc.idx); {
		pos = t.putRun(keys, sc.idx, sc.hints, pos, apply)
	}
	// An idle scratch must not keep a batch's worth of borders reachable (the
	// sixteen cursors, overwritten by the next wave, are the documented rest).
	clear(sc.hints)
}

// Prefetch descends for every key as BatchInto does, sixteen at a time, and
// discards what it finds: what it is for is the nodes on each key's path and
// the value at its end arriving in cache together, ahead of a caller that
// will then visit the keys one after another — a run of range scans
// starting at them.
//
//masstree:noalloc
func (t *Tree) Prefetch(keys [][]byte, sc *BatchScratch) {
	for lo := 0; lo < len(keys); lo += waveWidth {
		t.wave(keys[lo:min(lo+waveWidth, len(keys))], &sc.cur)
	}
}

// waveWidth is the number of descents a wave keeps in flight. Measured on
// 2 M keys the per-key cost falls steeply to 8 and is within a tenth of its
// floor at 16; the paper's clients batch about as many.
const waveWidth = 16

// A waveCursor is one key's place in its descent. Between rounds n is a
// node that has been asked for (prefetchNode) but not yet looked at; in
// waveSlot, kl, val, bag and slot are what readSlot read at the border n the
// descent ended at, validated, whose targets have been asked for too.
type waveCursor struct {
	n     *nodeHeader    // the node to examine next; waveSlot: the border
	p     *nodeHeader    // n's parent; nil when n is a layer's root
	pv    uint64         // p's version as validated when n was chosen
	slice uint64         // key[off:]'s leading slice
	off   int            // bytes of the key consumed by the layers above n
	val   unsafe.Pointer // waveSlot: the slot's lv; waveFound: the *value.Value
	bag   *byte          // waveSlot: the bag holding a suffix key's suffix
	slot  uint8          // waveSlot: the slot
	state waveState
	kl    uint32 // waveSlot: the slot's key length
}

type waveState uint8

const (
	waveDescend waveState = iota // n is to be examined
	waveSlot                     // the key's slot is found; it is to be looked up in
	// The states from waveFound on are final: the wave is done with the cursor.
	waveFound    // val is the key's value
	waveAbsent   // the key is not in the tree
	waveFallback // met a writer: the caller decides (a lookup: Get; a put: no hint)
)

// wave runs the lookups of up to waveWidth keys level-synchronously: each
// round advances every unfinished cursor by one hop (hop), and a hop ends by
// prefetching the node it chose, so a node's lines arrive while the other
// keys take their turn — §4.2's one-round-trip node fetch and §4.8's
// overlapped lookups. A lone Get waits out every level's miss in sequence.
// The round after a cursor's hop found its slot, the key is looked up there
// (lookup), in the suffix key or twig asked for a round before.
//
// Each key is validated by exactly the version pairs Get and findBorder
// check, in the same order, only with more time between a pair's two loads
// — which the protocol allows any reader (it may be descheduled there). So
// a key the wave resolves is linearizable for the reason a Get is. Where
// Get would wait or retry, the wave does neither: the cursor is marked
// waveFallback. It never spins, never chases next, never repairs a stale
// link. Cursors are left as they end; a stale one keeps a few nodes
// reachable until the scratch's next batch and is never read again (every
// wave begins by overwriting the cursors it uses).
//
//masstree:noalloc
func (t *Tree) wave(keys [][]byte, cur *[waveWidth]waveCursor) {
	root := t.rootHeader()
	for i, k := range keys {
		cur[i] = waveCursor{n: root, slice: keySlice(k)}
	}
	for live := len(keys); live > 0; {
		for i, k := range keys {
			c := &cur[i]
			switch c.state {
			case waveDescend:
				t.hop(c, k)
			case waveSlot:
				v, tw, _, found := lookup(c.kl, c.val, c.bag, int(c.slot), k[c.off:])
				c.val, c.state = unsafe.Pointer(v), waveFound
				switch {
				case !found:
					c.state = waveAbsent
				case tw != nil:
					// A twig key's value is known only now; the others' were
					// asked for with the slot.
					prefetchLine(c.val)
				}
			default:
				continue
			}
			if c.state >= waveFound {
				live--
			}
		}
	}
}

// hop examines c.n — one iteration of findBorder's loop, or, at a border,
// the body of Get's — and leaves c at the next node, at the key's slot, or
// finished.
//
//masstree:noalloc
func (t *Tree) hop(c *waveCursor, key []byte) {
	h := c.n
	v := h.Load()
	// The child's version is loaded before the parent's is re-checked
	// (Figure 6).
	if occ.Dirty(v) || occ.Deleted(v) || (c.p != nil && occ.Changed(c.p.Load(), c.pv)) {
		c.state = waveFallback
		return
	}
	if c.p == nil && !occ.Root(v) {
		// A layer's root must still be a root. A split of it leaves the link
		// in the layer above pointing at its left half until a writer or a
		// Get repairs it (§4.6.4); follow the parents up as findBorder does,
		// storing nothing, and examine what that reached as the root next
		// round.
		if r := ascendToRoot(h); r != h {
			prefetchNode(unsafe.Pointer(r))
			c.n = r
			return
		}
		c.state = waveFallback
		return
	}
	if !occ.Border(v) {
		child := h.interior().childFor(c.slice)
		if child == nil {
			c.state = waveFallback
			return
		}
		prefetchNode(unsafe.Pointer(child))
		c.n, c.p, c.pv = child, h, v
		return
	}
	n := h.border()
	k := key[c.off:]
	perm := n.perm()
	rank, found := n.searchRank(perm, c.slice, keyOrd(k))
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
	switch {
	case occ.Changed(h.Load(), v) || kl == klUnstable:
		c.state = waveFallback
	case !found:
		c.state = waveAbsent
	case kl == klLayer:
		// Enter the layer at the root the link names, not yet looked at.
		layer := (*nodeHeader)(lvp)
		prefetchNode(unsafe.Pointer(layer))
		c.n, c.p, c.off, c.slice = layer, nil, c.off+8, keySlice(k[8:])
	default:
		// The descent ends here, at the border a put of the key locks
		// (hint); ask for what lookup will read: the twig's first line, or
		// the value and a suffix key's bag. A 32 B twig is 32-byte aligned
		// and that line holds it all; a 48 B twig's cells 2 and 3 may lie in
		// the next line, which is left to be fetched when the cell is read.
		prefetchLine(lvp)
		if bag != nil {
			prefetchLine(unsafe.Pointer(bag))
		}
		c.kl, c.val, c.bag, c.slot, c.state = kl, lvp, bag, uint8(slot), waveSlot
	}
}
