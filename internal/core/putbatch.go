package core

import (
	"bytes"
	"sort"
	"unsafe"

	"repro/internal/value"
)

// PutBatchInto applies read-modify-writes to many keys in one call — the
// write-path counterpart of GetBatchInto (§4.8's PALM-style batching). It
// first descends for every key as GetBatchInto does, sixteen at a time, only
// to have the nodes and values fetched. Then keys are processed in tree
// order, so that every maximal run of batch keys that resolves to the same
// border node is applied under a single acquisition of that node's lock,
// amortizing the lock word's cache-line bounce across the run.
//
// apply is called once per key, under the owning border node's lock, with
// the key's original batch index and its current value (nil if absent), and
// returns the value to store — exactly Apply's contract (§4.7): returning
// nil declines the write and leaves the key untouched (conditional puts),
// so multi-column puts stay atomic and version assignment or version
// comparison can happen under the lock (§5). Duplicate keys in one batch
// are applied in input order (BatchScratch.order breaks slice ties by input
// index).
func (t *Tree) PutBatchInto(keys [][]byte, sc *BatchScratch, apply func(i int, old *value.Value) *value.Value) {
	if len(keys) == 0 {
		return
	}
	// The locked pass below takes nothing from this but warm lines.
	t.Prefetch(keys, sc)
	sc.order(keys)
	for pos := 0; pos < len(keys); {
		pos = t.putRun(keys, sc.idx, pos, apply)
	}
}

// putRun performs the put for keys[idx[pos]] — the same descend/lock/chase
// protocol as put — and then, while the border node lock is still held,
// greedily applies subsequent batch keys that fall into the same node (see
// extendRun). Returns the position after the last key applied.
func (t *Tree) putRun(keys [][]byte, idx []int, pos int, apply func(int, *value.Value) *value.Value) int {
	key := keys[idx[pos]]
restart:
	root := t.rootHeader()
	k := key
	depth := 0
	for {
		slice := keySlice(k)
		ord := keyOrd(k)
		n := t.lockBorder(root, slice)
		if n == nil {
			goto restart
		}
		perm := n.perm()
		rank, found := n.searchRank(perm, slice, ord)
		if found {
			slot := perm.slot(rank)
			switch kl := n.keylen(slot); kl {
			case klLayer:
				lvp := n.loadLV(slot)
				n.h.unlock()
				root = t.resolveLayer(n, slot, lvp)
				k = k[8:]
				depth++
				continue
			case klSuffix:
				suf := n.bag().suffix(slot)
				if bytes.Equal(suf, k[8:]) {
					old := (*value.Value)(n.loadLV(slot))
					if v := apply(idx[pos], old); v != nil {
						n.storeLV(slot, unsafe.Pointer(v))
					}
					return t.extendRun(n, keys, idx, pos+1, depth, key, apply)
				}
				// Conflicting suffix: push the old key one layer down
				// (§4.6.3), then continue inserting into the new layer.
				layer := t.makeLayer(n, slot, suf)
				n.h.unlock()
				root = layer
				k = k[8:]
				depth++
				continue
			case klUnstable:
				panic("core: unstable slot observed under lock")
			default:
				old := (*value.Value)(n.loadLV(slot))
				if v := apply(idx[pos], old); v != nil {
					n.storeLV(slot, unsafe.Pointer(v))
				}
				return t.extendRun(n, keys, idx, pos+1, depth, key, apply)
			}
		}
		// Key absent: insert it — unless apply declines (conditional writes).
		stored := apply(idx[pos], nil)
		if stored == nil {
			return t.extendRun(n, keys, idx, pos+1, depth, key, apply)
		}
		if perm.count() < width {
			t.insertSlot(n, perm, rank, slice, k, stored)
			t.count.Add(1)
			return t.extendRun(n, keys, idx, pos+1, depth, key, apply)
		}
		t.splitInsert(n, rank, slice, k, stored) // unlocks
		t.count.Add(1)
		return pos + 1
	}
}

// extendRun applies batch keys starting at idx[pos] to the locked border
// node n while they keep resolving to it, then unlocks and returns the next
// unprocessed position. prev is the previous key applied, whose leading
// depth*8 bytes are the trie prefix that routed the descent to n's layer.
//
// A key extends the run only if it (a) shares that prefix (so it descends
// to the same layer), (b) falls inside n's key range — lowkey(n) <= slice,
// and n's next sibling does not own the slice — and (c) needs neither a
// layer descent, a suffix push-down, nor a split. Anything else ends the
// run; the key is handled by its own fresh descent, which keeps this loop
// free of nested locking (no deadlock: at most one node lock is ever held).
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
		slice := keySlice(k)
		ord := keyOrd(k)
		if !n.keyGEqLowkey(slice) {
			break
		}
		if next := n.next.Load(); next != nil && next.keyGEqLowkey(slice) {
			break
		}
		perm := n.perm()
		rank, found := n.searchRank(perm, slice, ord)
		if found {
			slot := perm.slot(rank)
			switch kl := n.keylen(slot); kl {
			case klSuffix:
				suf := n.bag().suffix(slot)
				if !bytes.Equal(suf, k[8:]) {
					goto done // needs a push-down; new descent handles it
				}
				old := (*value.Value)(n.loadLV(slot))
				if v := apply(idx[pos], old); v != nil {
					n.storeLV(slot, unsafe.Pointer(v))
				}
			case klLayer:
				goto done // needs a layer descent
			case klUnstable:
				panic("core: unstable slot observed under lock")
			default:
				old := (*value.Value)(n.loadLV(slot))
				if v := apply(idx[pos], old); v != nil {
					n.storeLV(slot, unsafe.Pointer(v))
				}
			}
		} else {
			if perm.count() >= width {
				goto done // needs a split
			}
			if stored := apply(idx[pos], nil); stored != nil {
				t.insertSlot(n, perm, rank, slice, k, stored)
				t.count.Add(1)
			}
		}
		pos++
	}
done:
	n.h.unlock()
	return pos
}

func (sc *BatchScratch) Len() int { return len(sc.idx) }

// Less orders by leading key slice, breaking ties by input index so the
// order is deterministic and, in particular, duplicate keys within one batch
// keep their request order (PutBatchInto relies on this to apply repeated
// puts to a key in submission order).
func (sc *BatchScratch) Less(a, b int) bool {
	sa, sb := sc.slices[sc.idx[a]], sc.slices[sc.idx[b]]
	if sa != sb {
		return sa < sb
	}
	return sc.idx[a] < sc.idx[b]
}
func (sc *BatchScratch) Swap(a, b int) { sc.idx[a], sc.idx[b] = sc.idx[b], sc.idx[a] }

// order sorts the index permutation for keys into the scratch — tree order
// by leading slice, which is what lets PutBatchInto apply a run of keys
// under one border lock; in steady state (scratch warmed to the batch size)
// it performs no allocations.
func (sc *BatchScratch) order(keys [][]byte) {
	n := len(keys)
	if cap(sc.idx) < n {
		sc.idx = make([]int, n)
		sc.slices = make([]uint64, n)
	}
	sc.idx = sc.idx[:n]
	sc.slices = sc.slices[:n]
	for i, k := range keys {
		sc.idx[i] = i
		sc.slices[i] = keySlice(k)
	}
	sort.Sort(sc)
}

// PutBatch is PutBatchInto with an internal scratch, updating each key with
// f under its border node's lock. Hot paths should hold a BatchScratch and
// call PutBatchInto.
func (t *Tree) PutBatch(keys [][]byte, f func(i int, old *value.Value) *value.Value) {
	var sc BatchScratch
	t.PutBatchInto(keys, &sc, f)
}
