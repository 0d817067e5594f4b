package core

import (
	"bytes"
	"math"
	"unsafe"

	"repro/internal/value"
)

// KV is one key-value pair returned by GetRange.
type KV struct {
	Key   []byte
	Value *value.Value
}

// Scan visits keys greater than or equal to start in lexicographic order,
// calling fn for each until fn returns false or the keys are exhausted.
// Like the paper's getrange (§3), scans are not atomic with respect to
// concurrent inserts and removes: each border node is read with version
// validation, but the overall traversal observes a sequence of consistent
// per-node snapshots.
//
// The key passed to fn is a fresh copy the callback may retain.
func (t *Tree) Scan(start []byte, fn func(key []byte, v *value.Value) bool) {
	t.ScanInto(start, nil, func(k []byte, v *value.Value) bool {
		return fn(append(make([]byte, 0, len(k)), k...), v)
	})
}

// ScanInto is Scan with a caller-provided key buffer: the key passed to fn
// aliases buf, is valid only during the callback, and must be copied if
// retained. It returns the (possibly grown) buffer for reuse; once the
// buffer holds the longest key, a scan allocates nothing.
//
//masstree:noalloc
func (t *Tree) ScanInto(start []byte, buf []byte, fn func(key []byte, v *value.Value) bool) []byte {
	return t.ScanNInto(start, 0, buf, fn)
}

// ScanAll is ScanNInto's n for a caller that will read every entry's value
// for as long as the scan goes on.
const ScanAll = math.MaxInt

// ScanNInto is ScanInto for a caller that says how many entries' values it
// is going to read: the next n, or with ScanAll every one until fn stops the
// scan. The scan is the same whatever n is — it ends when fn returns false —
// n only decides what is fetched ahead of fn (see scanLayer): up to n values,
// and a border's successor when the border cannot supply the rest, so that a
// scan of ten does not ask for fifteen values and a second node it will
// never reach. With n <= 0 the caller has said nothing: the successor is
// still fetched ahead but no value is, which is right for a callback that
// reads keys only and costs one that stops early nothing.
//
//masstree:noalloc
func (t *Tree) ScanNInto(start []byte, n int, buf []byte, fn func(key []byte, v *value.Value) bool) []byte {
	w := scanWalk{kbuf: buf, want: n, values: n > 0, fn: fn}
	if n <= 0 {
		w.want = ScanAll // for the successor's sake; values stays false
	}
	t.scanLayer(t.rootHeader(), scanFrom(start), 0, &w)
	return w.kbuf
}

// GetRange returns up to n key-value pairs starting with the first key at or
// after start (§3: getrange, also called "scan").
func (t *Tree) GetRange(start []byte, n int) []KV {
	if n <= 0 {
		return nil
	}
	out := make([]KV, 0, n)
	t.Scan(start, func(k []byte, v *value.Value) bool {
		out = append(out, KV{Key: k, Value: v})
		return len(out) < n
	})
	return out
}

// scanPos is a scan's resume position within one trie layer, held by value:
// the walker emits the entries at or after it. It has three states:
//
//	ord 0..8   at the key of that length within slice; every longer key of
//	           the slice, and every later slice, follows.
//	ord 9      at the slice's one longer-than-8-bytes entry, bounded below by
//	           suf (the tail of the caller's start key): a suffix entry is
//	           emitted if its suffix >= suf, a twig's keys if their
//	           remainders are, a layer is entered at suf.
//	ordPast    past the whole slice. An emitted suffix key, twig or scanned
//	           sub-layer was the slice's last entry (at most one entry per
//	           slice is longer than 8 bytes), so a re-find that lands on the
//	           same node skips the slice instead of walking the layer again.
type scanPos struct {
	slice uint64
	ord   int
	suf   []byte
}

const ordPast = 10

// scanFrom is the position of the first key >= k in a layer.
func scanFrom(k []byte) scanPos {
	pos := scanPos{slice: keySlice(k), ord: keyOrd(k)}
	if len(k) > 8 {
		pos.suf = k[8:]
	}
	return pos
}

// slotSnap is the raw words of one border-node slot.
type slotSnap struct {
	slot int
	ks   uint64
	kl   uint32
	lv   unsafe.Pointer
}

// scanWalk is what one scan carries through its layers.
type scanWalk struct {
	// kbuf[:plen] holds the key bytes consumed by outer layers; each emitted
	// key is assembled behind them, so deeper layers extend the one buffer
	// in place and keys are valid only during fn.
	kbuf []byte
	// want is how many more entries the caller will take, as far as it
	// knows: at least 1 while fn returns true. Only the prefetches read it.
	want   int
	values bool // the caller gave a count: fetch that many values ahead of fn
	fn     func([]byte, *value.Value) bool
}

// scanLayer walks one trie layer's border-node list from the node owning
// pos, emitting the entries at or after pos and recursing into deeper
// layers. Returns false if fn aborted the scan.
//
// Every address the emit loop will load from — the values it passes to fn,
// the next border — is known once a node's snapshot validates, so they are
// all asked for there (prefetchLine, prefetchNode) and their misses overlap
// instead of being taken one per fn. The prefetches follow the validation
// and change nothing the protocol reads; w.want keeps them to what the
// caller will use.
//
//masstree:noalloc
func (t *Tree) scanLayer(root *nodeHeader, pos scanPos, plen int, w *scanWalk) bool {
	n, v := t.findBorder(root, pos.slice)
	var snap [width]slotSnap
	for {
		if isDeleted(v) {
			if n.lowOrd < 0 {
				// A layer's leftmost node dies only with the layer itself
				// (collapseLayer), which was then empty. Re-finding from its
				// root would return this node forever.
				return true
			}
			// Node removed mid-scan: re-find the resume point.
			n, v = t.findBorder(root, pos.slice)
			continue
		}
		// Snapshot the raw words of the slots at or after pos, and the bag
		// pointer once for the node, then validate the version; on any
		// change re-read. The keylens word is read on both sides of every lv
		// and of the bag pointer, so a layer transition (§4.6.3, no version
		// change) can neither tear the union nor pair a slot with a bag
		// rebuilt after its suffix died.
		m := 0
		ok := true
		perm := n.perm()
		kw := n.keylens.Load()
		var snapped uint64 // the keylens fields of the slots in snap
		for r, cnt := 0, perm.count(); r < cnt; r++ {
			slot := perm.slot(r)
			ks := n.keyslice[slot].Load()
			if ks < pos.slice {
				continue
			}
			kl := klAt(kw, slot)
			if kl == klUnstable {
				ok = false
				break
			}
			snap[m] = slotSnap{slot: slot, ks: ks, kl: kl, lv: n.loadLV(slot)}
			snapped |= 0xf << (4 * uint(slot))
			m++
		}
		bag := n.suffixes.Load()
		next := n.next.Load()
		if !ok || (n.keylens.Load()^kw)&snapped != 0 || changed(n.h.version.Load(), v) {
			v = n.h.stable()
			continue
		}

		// Ask for what the emit loop is about to read — the bag first, it is
		// read first. A layer counts as the one entry it at least holds.
		if bag != nil {
			prefetchLine(unsafe.Pointer(bag))
		}
		ahead := w.want
		for i := 0; i < m && ahead > 0; i++ {
			e := &snap[i]
			if e.ks == pos.slice && ordOf(e.kl) < pos.ord {
				continue
			}
			switch {
			case e.kl == klTwig:
				prefetchTwig(e.lv) // its values are asked for when it is reached
			case w.values && e.kl != klLayer:
				prefetchLine(e.lv)
			}
			ahead--
		}
		if next != nil && ahead > 0 {
			prefetchNode(unsafe.Pointer(next))
		}
		sufs := bagAt(bag) // immutable: read after validation, like the values

		// Emit from the validated snapshot.
		for i := 0; i < m; i++ {
			e := &snap[i]
			ord := ordOf(e.kl)
			var bound []byte // what is left of the start key below this entry
			if e.ks == pos.slice {
				if ord < pos.ord {
					continue
				}
				if ord == pos.ord {
					bound = pos.suf
				}
			}
			switch e.kl {
			case klLayer:
				w.kbuf = appendSliceBytes(w.kbuf[:plen], e.ks, 8)
				if !t.scanLayer(ascendToRoot((*nodeHeader)(e.lv)), scanFrom(bound), plen+8, w) {
					return false
				}
			case klTwig:
				if !scanTwig((*twig)(e.lv), e.ks, bound, plen, w) {
					return false
				}
			default:
				k := appendSliceBytes(w.kbuf[:plen], e.ks, min(ord, 8))
				if e.kl == klSuffix {
					suf := sufs.suffix(e.slot)
					if bytes.Compare(suf, bound) < 0 {
						continue
					}
					k = append(k, suf...)
				}
				w.kbuf = k
				if !w.fn(k, (*value.Value)(e.lv)) {
					return false
				}
				w.want = max(w.want-1, 1)
			}
			pos = scanPos{slice: e.ks, ord: ord + 1}
		}

		if next == nil {
			return true
		}
		n = next
		v = n.h.stable()
	}
}

// scanTwig emits the keys of a twig that are at or after bound, the tail of
// the start key past the twig's slice ks. The twig is the one the border's
// validated snapshot held: if a writer has swapped it since, the scan shows
// the slice as it was at the snapshot, as it does any border. Returns false
// if fn aborted the scan.
//
//masstree:noalloc
func scanTwig(tw *twig, ks uint64, bound []byte, plen int, w *scanWalk) bool {
	keys := tw.keys()
	first, _ := keys.search(bound)
	if w.values {
		for j, end := first, first+min(keys.n()-first, w.want); j < end; j++ {
			prefetchLine(unsafe.Pointer(tw.value(j)))
		}
	}
	for j := first; j < keys.n(); j++ {
		w.kbuf = append(appendSliceBytes(w.kbuf[:plen], ks, 8), keys.at(j)...)
		if !w.fn(w.kbuf, tw.value(j)) {
			return false
		}
		w.want = max(w.want-1, 1)
	}
	return true
}
