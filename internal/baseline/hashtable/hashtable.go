// Package hashtable implements the concurrent hash table the paper built
// "in the Masstree framework" to price range-query support (§6.4): hash
// tables have O(1) average lookups but cannot scan in key order, and the
// paper's table reached 2.5x Masstree's throughput on an 8-byte-key get
// workload.
//
// The table is open-coded and sized at construction (the paper's table ran
// at 30% occupancy and inspected 1.1 entries per lookup; there is no
// resize). Buckets are prepend-only chains of immutable entries with
// atomically-swapped value pointers: gets are lock-free and write no shared
// memory, and inserts CAS the bucket head. The table implements what §6.4
// runs, gets and puts; there is no remove.
package hashtable

import (
	"bytes"
	"hash/fnv"
	"sync/atomic"

	"repro/internal/value"
)

// Table is a fixed-capacity concurrent hash table.
type Table struct {
	buckets []atomic.Pointer[entry]
	mask    uint64
	count   atomic.Int64
}

// entry is one chain link. key and next are immutable after publication;
// val is stored atomically.
type entry struct {
	key  []byte
	val  atomic.Pointer[value.Value]
	next *entry
}

// New creates a table with at least the given number of buckets (rounded up
// to a power of two). Size for ~30% occupancy like the paper: buckets ≈
// 3x the expected key count.
func New(buckets int) *Table {
	n := 1
	for n < buckets {
		n <<= 1
	}
	return &Table{buckets: make([]atomic.Pointer[entry], n), mask: uint64(n - 1)}
}

func (t *Table) bucket(key []byte) *atomic.Pointer[entry] {
	h := fnv.New64a()
	h.Write(key)
	return &t.buckets[h.Sum64()&t.mask]
}

// Get returns the value for key; lock-free, no shared-memory writes.
func (t *Table) Get(key []byte) (*value.Value, bool) {
	for e := t.bucket(key).Load(); e != nil; e = e.next {
		if bytes.Equal(e.key, key) {
			return e.val.Load(), true
		}
	}
	return nil, false
}

// Put stores v for key, reporting whether a value was replaced.
func (t *Table) Put(key []byte, v *value.Value) bool {
	b := t.bucket(key)
	for {
		head := b.Load()
		for e := head; e != nil; e = e.next {
			if bytes.Equal(e.key, key) {
				e.val.Store(v)
				return true
			}
		}
		ne := &entry{key: append([]byte(nil), key...), next: head}
		ne.val.Store(v)
		if b.CompareAndSwap(head, ne) {
			t.count.Add(1)
			return false
		}
		// Lost the prepend race; rescan in case the winner inserted our key.
	}
}

// Len returns the number of keys. No figure reads it, but the conformance
// suite checks it after every operation, and core.Tree's Put pays the same
// shared atomic add on every insert: dropping it here would skew §6.4's comparison.
func (t *Table) Len() int { return int(t.count.Load()) }
