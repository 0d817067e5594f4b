package core

import (
	"bytes"
	"slices"
	"sort"

	"repro/internal/value"
)

// PutBatchInto applies read-modify-writes to many keys in one call — the
// write-path counterpart of GetBatchInto, and like it a case of BatchInto:
// the one with every key a put. See there for the descent, the locked pass
// and apply's contract.
func (t *Tree) PutBatchInto(keys [][]byte, sc *BatchScratch, apply func(i int, old *value.Value) *value.Value) {
	t.BatchInto(keys, nil, nil, nil, sc, apply)
}

// putRun performs the put for keys[idx[pos]] — put's protocol, except that
// the first border tried is the one the wave found (lockHint) — and then,
// while the border node lock is still held, greedily applies subsequent
// batch keys that fall into the same node (see extendRun). Returns the
// position after the last key applied.
func (t *Tree) putRun(keys [][]byte, idx []int, hints []borderHint, pos int, apply func(int, *value.Value) *value.Value) int {
	key := keys[idx[pos]]
	// k is what is left of the key at the layer n is in, depth layers down.
	h := hints[idx[pos]]
	k, depth := key[h.off:], h.off/8
	n := t.lockHint(h.n, keySlice(k))
	for {
		if n == nil {
			// No hint, or a stale one, or a node deleted under lockBorder:
			// from the root.
			k, depth = key, 0
			n = t.lockBorder(t.rootHeader(), keySlice(k))
			continue
		}
		old, stored, step, at := t.putAt(n, k, idx[pos], apply)
		if step == stepLayer {
			k, depth = k[8:], depth+1
			n = t.lockBorder(t.enterLayer(n, at), keySlice(k))
			continue
		}
		t.counted(old, stored)
		if step == stepSplit {
			t.splitInsert(n, at, keySlice(k), k, stored) // unlocks
			return pos + 1
		}
		return t.extendRun(n, keys, idx, pos+1, depth, key, apply)
	}
}

// extendRun applies batch keys starting at idx[pos] to the locked border
// node n while they keep resolving to it, then unlocks and returns the next
// unprocessed position. prev is the previous key applied, whose leading
// depth*8 bytes are the trie prefix that routed the descent to n's layer.
//
// A key extends the run only if it (a) shares that prefix (so it descends
// to the same layer), (b) falls inside n's key range (owns) and (c) needs no
// layer descent. Anything else ends the run; the key is handled by its own
// putRun, which keeps this loop free of nested locking (no deadlock: at most
// one node lock is ever held). A key that splits n is applied and ends the
// run with it, since the split gives up the lock.
//
//masstree:unlocks n
func (t *Tree) extendRun(n *borderNode, keys [][]byte, idx []int, pos int, depth int, prev []byte, apply func(int, *value.Value) *value.Value) int {
	prefix := prev[:8*depth]
	for pos < len(idx) {
		full := keys[idx[pos]]
		// Keys at this trie depth must be longer than the consumed prefix: an
		// equal-length key would have been stored inline a layer up.
		if len(full) <= len(prefix) || !bytes.Equal(full[:len(prefix)], prefix) {
			break
		}
		k := full[len(prefix):]
		if !n.owns(keySlice(k)) {
			break
		}
		old, stored, step, at := t.putAt(n, k, idx[pos], apply)
		if step == stepLayer {
			break
		}
		pos++
		t.counted(old, stored)
		if step == stepSplit {
			t.splitInsert(n, at, keySlice(k), k, stored) // unlocks
			return pos
		}
	}
	n.h.unlock()
	return pos
}

func (sc *BatchScratch) Len() int { return len(sc.idx) }

// Less orders the puts by leading key slice — tree order, as far as runs
// under one border lock need it — then by whole key, so that the puts of
// one key are neighbours, then by input index, so that they keep their
// request order (BatchInto relies on this to apply repeated puts to a key
// in submission order, PutBefore to find the last of them).
func (sc *BatchScratch) Less(a, b int) bool {
	return sc.before(sc.keys, sc.idx[a], sc.slices[sc.idx[b]], sc.keys[sc.idx[b]], sc.idx[b])
}
func (sc *BatchScratch) Swap(a, b int) { sc.idx[a], sc.idx[b] = sc.idx[b], sc.idx[a] }

// before reports whether put j sorts ahead of (slice, key, i).
func (sc *BatchScratch) before(keys [][]byte, j int, slice uint64, key []byte, i int) bool {
	if s := sc.slices[j]; s != slice {
		return s < slice
	}
	if c := bytes.Compare(keys[j], key); c != 0 {
		return c < 0
	}
	return j < i
}

// order sorts the indexes of the batch's puts (every key, if put is nil)
// into the scratch; see Less. In steady state (scratch warmed to the batch
// size) it performs no allocations.
func (sc *BatchScratch) order(keys [][]byte, put []bool) {
	n := len(keys)
	sc.idx = slices.Grow(sc.idx[:0], n)
	sc.slices = slices.Grow(sc.slices[:0], n)[:n]
	for i, k := range keys {
		if put == nil || put[i] {
			sc.idx = append(sc.idx, i)
			sc.slices[i] = keySlice(k)
		}
	}
	sc.keys = keys
	sort.Sort(sc)
	sc.keys = nil
}

// PutBefore returns the index of the last put ahead of keys[i] in the batch
// whose key is keys[i]'s, or -1 if there is none: the put whose stored value
// a lookup of keys[i] has to report if the batch's operations on one key are
// to take effect in input order (BatchInto answers its lookups from before
// every put). keys is the batch BatchInto last ran with this scratch. A
// binary search of the sorted puts, so a batch's lookups cost n log n
// together however many of its keys share a slice.
//
//masstree:noalloc
func (sc *BatchScratch) PutBefore(keys [][]byte, i int) int {
	slice := keySlice(keys[i])
	lo, hi := 0, len(sc.idx)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); sc.before(keys, sc.idx[mid], slice, keys[i], i) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > 0 && bytes.Equal(keys[sc.idx[lo-1]], keys[i]) {
		return sc.idx[lo-1]
	}
	return -1
}

// PutBatch is PutBatchInto with an internal scratch, updating each key with
// f under its border node's lock. Hot paths should hold a BatchScratch and
// call PutBatchInto.
func (t *Tree) PutBatch(keys [][]byte, f func(i int, old *value.Value) *value.Value) {
	var sc BatchScratch
	t.PutBatchInto(keys, &sc, f)
}
