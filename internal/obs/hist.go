// Package obs is the store's observability subsystem: alloc-free
// log-bucketed latency histograms, a fixed-size flight recorder of binary
// trace events, and the snapshot/merge/rendering machinery behind the
// server's admin endpoints and the histogram keys on the wire Stats op.
// It depends only on the standard library and allocates nothing on its
// record paths — the same bar the hot ops it measures are held to.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the number of log-2 latency buckets per histogram. Bucket 0
// holds durations of at most 1ns (and the degenerate d <= 0); bucket b
// (b >= 1) holds durations in [2^b, 2^(b+1)) ns. 63 doublings span far past
// any latency this process can observe, so the top bucket never saturates
// semantically — it just catches outliers beyond ~146 years.
const NumBuckets = 64

// histShard is one worker's private slice of a histogram. The counts array
// is 512 bytes — eight cache lines — so adjacent shards never share a line,
// and the trailing sum keeps a per-shard total for mean extraction. The pad
// rounds the struct to a cache-line multiple (576 bytes) so shard k+1
// starts on its own line even inside a shards slice.
type histShard struct {
	counts [NumBuckets]uint64 // accessed only via atomic
	sum    uint64             // accessed only via atomic; total ns recorded
	_      [56]byte
}

// Hist is a fixed-shape latency histogram sharded per worker. Record is
// wait-free (one atomic add per bucket count, one for the running sum) and
// allocation-free; Snapshot is lock-free (atomic loads, no quiescence — a
// snapshot taken under load is some valid recent state, which is all a
// monitoring read needs). A nil *Hist is a valid no-op receiver, so
// disabled instrumentation costs a nil check and nothing else.
type Hist struct {
	name   string
	shards []histShard
}

// NewHist builds a histogram with one shard per worker. workers < 1 is
// clamped to 1.
func NewHist(name string, workers int) *Hist {
	if workers < 1 {
		workers = 1
	}
	return &Hist{name: name, shards: make([]histShard, workers)}
}

// Bucket returns the bucket index for a duration: 0 for d <= 1ns, else
// bits.Len64(ns) - 1 (so bucket b covers [2^b, 2^(b+1)) ns).
//
//masstree:noalloc
func Bucket(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	b := bits.Len64(uint64(d)) - 1
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// BucketLow reports the inclusive lower bound of bucket b in nanoseconds.
func BucketLow(b int) uint64 {
	if b <= 0 {
		return 0
	}
	return 1 << uint(b)
}

// bucketMid is the representative value reported for samples that landed in
// bucket b: the midpoint 1.5*2^b ns (3 << (b-1)), 1 for the sub-2ns bucket.
// Quantile error is therefore bounded by the bucket width — a factor of 2,
// the standard log-bucket trade.
func bucketMid(b int) uint64 {
	if b <= 0 {
		return 1
	}
	return 3 << uint(b-1)
}

// Record adds one observation to the worker's shard. Safe on a nil
// receiver (no-op), concurrent with other recorders and with Snapshot.
//
//masstree:noalloc
func (h *Hist) Record(worker int, d time.Duration) {
	h.RecordN(worker, d, 1)
}

// RecordN adds n observations of d each — a run of n operations timed as one
// and costing d apiece on average — for the same two atomic adds as one.
//
//masstree:noalloc
func (h *Hist) RecordN(worker int, d time.Duration, n int) {
	if h == nil {
		return
	}
	sh := &h.shards[uint(worker)%uint(len(h.shards))]
	atomic.AddUint64(&sh.counts[Bucket(d)], uint64(n))
	if d > 0 {
		atomic.AddUint64(&sh.sum, uint64(d)*uint64(n))
	}
}

// HistSnapshot is a point-in-time copy of a histogram: plain memory, safe
// to merge, serialize, and query without further synchronization.
type HistSnapshot struct {
	Name    string
	Buckets [NumBuckets]uint64
	Sum     uint64 // total nanoseconds recorded
}

// Snapshot copies the histogram with atomic loads, summing across shards.
// Nil-safe: a nil Hist snapshots as an empty histogram.
func (h *Hist) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.Name = h.name
	for i := range h.shards {
		sh := &h.shards[i]
		for b := 0; b < NumBuckets; b++ {
			s.Buckets[b] += atomic.LoadUint64(&sh.counts[b])
		}
		s.Sum += atomic.LoadUint64(&sh.sum)
	}
	return s
}

// ShardSnapshot copies a single worker shard — cluster mode uses this for
// per-node quantiles out of its node-sharded RPC histogram.
func (h *Hist) ShardSnapshot(worker int) HistSnapshot {
	var s HistSnapshot
	if h == nil || len(h.shards) == 0 {
		return s
	}
	sh := &h.shards[uint(worker)%uint(len(h.shards))]
	s.Name = h.name
	for b := 0; b < NumBuckets; b++ {
		s.Buckets[b] = atomic.LoadUint64(&sh.counts[b])
	}
	s.Sum = atomic.LoadUint64(&sh.sum)
	return s
}

// Count is the total number of recorded observations.
func (s HistSnapshot) Count() uint64 {
	var n uint64
	for _, c := range s.Buckets {
		n += c
	}
	return n
}

// Quantile reports the latency (ns) at quantile q in [0,1]: the
// representative midpoint of the bucket containing the q-th ranked sample.
// Zero observations → 0.
func (s HistSnapshot) Quantile(q float64) uint64 {
	total := s.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for b := 0; b < NumBuckets; b++ {
		cum += s.Buckets[b]
		if cum > rank {
			return bucketMid(b)
		}
	}
	return bucketMid(NumBuckets - 1)
}

// Mean reports the arithmetic mean latency in nanoseconds (exact, from the
// recorded sum — not bucket-quantized).
func (s HistSnapshot) Mean() uint64 {
	total := s.Count()
	if total == 0 {
		return 0
	}
	return s.Sum / total
}
