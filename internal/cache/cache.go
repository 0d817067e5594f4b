// Package cache is the kvstore's cache mode: memory accounting, an
// S3-FIFO-inspired eviction policy, and the hot-path feeds that keep both
// off the store's put/get critical sections.
//
// The paper pitches Masstree as memcached-class storage (§1, §6 benchmarks
// against memcached), but a store that can only grow cannot serve a cache
// workload. This package bounds it. Three pieces, each designed so the
// store's zero-allocation hot paths stay zero-allocation:
//
// Accounting: per-worker cache-line-padded byte counters fed by the packed
// value sizes (value.Value.Size). A put or remove costs exactly one atomic
// add on the worker's own shard; the live total is summed only by the
// maintenance pass, stats, an occasional overshoot probe and a flagged
// writer's HelpEnforce.
//
// Admission and access feeds: the policy structures sit behind one mutex
// that the hot paths never take. Puts record (hash, key, size) events into
// per-worker double-buffered admission rings (a short per-worker mutex held
// only to append into a reused arena — amortized zero allocations); gets
// record key hashes into per-worker lossy access rings (one atomic add + one
// atomic store, no lock at all, overwrites under pressure are deliberate).
// The store's maintenance pass, run on its clock's tick, drains both and
// applies them to the policy. Between ticks the only response is the
// writer's own: an overshoot probe or a ring past half raises a flag, and
// the next writer to see it runs HelpEnforce.
//
// Eviction: S3-FIFO (Yang et al., "FIFO queues are all you need for cache
// eviction", adapted from the sfcache exemplar): a small probationary FIFO
// (~10% of the byte budget), a main FIFO, and a ghost list of recently
// evicted key hashes. New keys enter small; a key evicted from small whose
// hash is still in ghost re-enters directly into main (one cheap second
// chance that makes the policy scan-resistant — a burst of one-touch keys
// washes through small without displacing the hot main set). Eviction
// decisions are made here; the actual removal goes through the store's
// border-lock remove path via a callback, as a clean drop: no WAL record
// is written, so a crash may replay an evicted key back, and recovery
// re-enforces the bound (see kvstore's cache-mode documentation).
package cache

import (
	"sync"
	"sync/atomic"
)

// Hash returns the policy's 64-bit key hash (FNV-1a, inlined so hashing a
// key on the hot path costs no allocation and no interface dispatch). The
// zero hash is reserved to mean "empty access-ring slot", so keys hashing
// to 0 are nudged onto a fixed non-zero value. The store's flight-recorder
// events carry this hash too, so a dumped event names the policy's key.
//
//masstree:noalloc
func Hash(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	if h == 0 {
		return 1
	}
	return h
}

// byteShard is one worker's byte counter, padded to a cache line so
// neighboring workers' accounting adds never false-share.
type byteShard struct {
	n   atomic.Int64
	ops atomic.Uint64 // put counter driving the occasional overshoot probe
	_   [48]byte
}

// admitEvent is one hot-path policy event: a put (admit or refresh) or a
// remove (forget). The key bytes live in the ring's arena at [off, off+klen).
type admitEvent struct {
	hash uint64
	size int64
	off  int32
	klen int32
	kind uint8
}

const (
	evPut uint8 = iota
	evRemove
)

// admitRing is one worker's double-buffered admission feed. Producers
// append under a short mutex into reused slices; a drain (the maintenance
// pass, or a flagged writer's HelpEnforce) swaps the buffers out and
// processes them without holding the producer side up.
type admitRing struct {
	mu    sync.Mutex
	ev    []admitEvent
	arena []byte
	drops int64 // events shed past maxRingEvents (counted, not silent)
	_     [24]byte
}

// maxRingEvents bounds how many events one ring buffers between maintenance
// drains. Past it, further events are dropped (and counted): the policy's
// view of those keys goes stale — they may dodge eviction until a later put
// refreshes them — but memory stays bounded and accounting (which is
// separate) stays exact.
const maxRingEvents = 1 << 16

// accessRingSize is the per-worker lossy access window. Bigger remembers
// more distinct hot hashes between drains; overwrites just lose frequency
// signal, never correctness.
const accessRingSize = 256

// accessRing records key hashes of reads, lossily: one atomic add and one
// atomic store per get, no lock. Slots overwritten before a drain lose
// their signal, which S3-FIFO tolerates by design (its frequency bits
// saturate at tiny values anyway).
type accessRing struct {
	pos   atomic.Uint64
	slots [accessRingSize]atomic.Uint64
}

// entry is one tracked key in small or main. Guarded by maintMu.
type entry struct {
	hash  uint64
	key   []byte
	size  int64
	freq  uint8
	small bool
	dead  bool // forgotten (removed/evicted) while still queued
}

// fifo is a slice-backed FIFO of entries with an advancing head.
type fifo struct {
	q    []*entry
	head int
}

func (f *fifo) push(e *entry) { f.q = append(f.q, e) }

func (f *fifo) pop() *entry {
	if f.head >= len(f.q) {
		return nil
	}
	e := f.q[f.head]
	f.q[f.head] = nil
	f.head++
	if f.head > 64 && f.head*2 >= len(f.q) {
		n := copy(f.q, f.q[f.head:])
		f.q = f.q[:n]
		f.head = 0
	}
	return e
}

func (f *fifo) len() int { return len(f.q) - f.head }

// Stats is a snapshot of the cache counters the server exports.
type Stats struct {
	BytesLive   int64 // accounted live bytes (packed value sizes)
	Evictions   int64 // keys dropped by the S3-FIFO policy
	Expirations int64 // keys dropped by the TTL sweep
	GhostHits   int64 // re-admissions that hit the ghost list
	AdmitDrops  int64 // admission events shed by full rings
}

// Cache is one store's cache-mode state. Accounting (Account/BytesLive) is
// always active; the eviction policy engages only when maxBytes > 0.
// Account, NotePut, NoteAccess, NoteRemove, and HelpEnforce are safe for
// any concurrency; Maintain and Seed serialize on the internal maintenance
// mutex with each other and with helpers.
type Cache struct {
	maxBytes int64
	shards   []byteShard
	rings    []admitRing
	access   []accessRing
	// needHelp latches when an accounting probe sees the budget exceeded or
	// an admission ring passes half full; writers observing it run
	// HelpEnforce, which drains the rings and evicts between maintenance
	// ticks.
	needHelp atomic.Bool

	// Policy state, guarded by maintMu: the store's maintenance pass takes
	// it once a tick, and a flagged writer takes it in HelpEnforce.
	maintMu             sync.Mutex
	entries             map[uint64]*entry
	small, main         fifo
	smallBytes          int64
	mainBytes           int64
	ghost               map[uint64]struct{}
	ghostQ              []uint64
	ghostHead           int
	evBuf               []admitEvent // swap buffers for ring drains
	arenaBuf            []byte
	evictions           atomic.Int64
	expirations         atomic.Int64
	ghostHits           atomic.Int64
	lowWater, highWater int64
	smallTarget         int64
}

// New creates the cache state for a store with the given worker count.
// maxBytes <= 0 means accounting only (no eviction policy, no rings).
func New(workers, maxBytes int) *Cache {
	if workers < 1 {
		workers = 1
	}
	c := &Cache{
		maxBytes: int64(maxBytes),
		// One extra shard for recovery's seeding, which runs as no worker.
		// (Maintenance drops account on worker 0's shard, the worker the
		// store's drop kernel ticks for them.)
		shards: make([]byteShard, workers+1),
	}
	if maxBytes > 0 {
		c.rings = make([]admitRing, workers)
		c.access = make([]accessRing, workers)
		c.entries = make(map[uint64]*entry)
		c.ghost = make(map[uint64]struct{})
		// Evict down to lowWater once over maxBytes, so each pass frees a
		// batch instead of shaving single values; probe for overshoot at
		// highWater. One "eviction batch" is therefore maxBytes/32.
		c.lowWater = c.maxBytes - c.maxBytes/32
		c.highWater = c.maxBytes
		c.smallTarget = c.maxBytes / 10
	}
	return c
}

// EvictionEnabled reports whether a byte budget (and thus the policy) is
// configured.
func (c *Cache) EvictionEnabled() bool { return c.maxBytes > 0 }

// MaxBytes returns the configured byte budget (0 = unbounded).
func (c *Cache) MaxBytes() int64 { return c.maxBytes }

// maintShard indexes the extra accounting shard reserved for contexts that
// are no worker (recovery's seeding).
func (c *Cache) maintShard() int { return len(c.shards) - 1 }

// Account adds delta bytes to worker's accounting shard: one atomic add on
// a cache line no other worker touches. Every put, remove, eviction, and
// expiry must pass through here with the packed-size delta it caused.
// Workers out of range (recovery's seeding passes -1) use the reserved
// shard. Occasionally (every 64 puts per shard) the live total is probed
// and, if it exceeds the budget, needHelp is raised, so the writer's
// HelpEnforce evicts — the backpressure that keeps overshoot to one
// eviction batch even when the write rate outruns the maintenance tick.
func (c *Cache) Account(worker int, delta int64) {
	i := worker
	if i < 0 || i >= len(c.shards)-1 {
		i = c.maintShard()
	}
	sh := &c.shards[i]
	sh.n.Add(delta)
	if c.maxBytes <= 0 || delta <= 0 {
		return
	}
	if sh.ops.Add(1)&63 == 0 && c.BytesLive() > c.highWater {
		c.needHelp.Store(true)
	}
}

// HelpEnforce is the write path's response between maintenance ticks: once
// needHelp is raised (an overshoot probe, or a ring past half), the calling
// writer drains the admission rings and evicts down to the low watermark
// itself. Over budget it blocks on the maintenance mutex — the point of
// the backpressure: writers that outrun the maintenance tick (a single
// CPU, or many writer cores against one evictor) are throttled behind the
// eviction they necessitate, which bounds overshoot to roughly one probe
// window plus one eviction batch. Under budget it only TryLocks: a pass
// holding the mutex drains the rings itself, so no writer waits. One
// atomic load when the flag is clear, so the steady-state put path pays
// nothing. evict is the same callback Maintain takes.
func (c *Cache) HelpEnforce(evict func(key []byte) bool) {
	if c.entries == nil || !c.needHelp.Load() {
		return
	}
	if c.BytesLive() > c.maxBytes {
		c.maintMu.Lock()
	} else if !c.maintMu.TryLock() {
		return
	}
	c.needHelp.Store(false)
	c.drainAdmits()
	c.enforce(evict) // no-op if a prior holder already got us under budget
	c.maintMu.Unlock()
}

// BytesLive sums the accounting shards.
func (c *Cache) BytesLive() int64 {
	var n int64
	for i := range c.shards {
		n += c.shards[i].n.Load()
	}
	return n
}

// NotePut records a put's admission event for the policy: key (copied into
// the ring's arena), its hash, and the new packed size. No-op unless
// eviction is enabled. Amortized allocation-free: the ring's slices are
// retained and reused across drains.
func (c *Cache) NotePut(worker int, key []byte, size int) {
	if c.rings == nil {
		return
	}
	c.note(worker, key, Hash(key), int64(size), evPut)
}

// NoteRemove records an explicit remove so the policy forgets the key.
func (c *Cache) NoteRemove(worker int, key []byte) {
	if c.rings == nil {
		return
	}
	c.note(worker, key, Hash(key), 0, evRemove)
}

// note appends one event to worker's admission ring. A ring at its cap
// sheds the event (counted in drops); a ring past half raises needHelp, so
// the writer's HelpEnforce drains it before it fills.
func (c *Cache) note(worker int, key []byte, hash uint64, size int64, kind uint8) {
	r := &c.rings[worker%len(c.rings)]
	r.mu.Lock()
	if len(r.ev) >= maxRingEvents {
		r.drops++
	} else {
		off := len(r.arena)
		r.arena = append(r.arena, key...)
		r.ev = append(r.ev, admitEvent{hash: hash, size: size, off: int32(off), klen: int32(len(key)), kind: kind})
	}
	half := len(r.ev) >= maxRingEvents/2
	r.mu.Unlock()
	if half {
		c.needHelp.Store(true)
	}
}

// NoteAccess records a read of key for frequency tracking: one atomic add
// and one atomic store into the worker's lossy ring. No-op unless eviction
// is enabled (checked before hashing, so plain stores pay one branch).
func (c *Cache) NoteAccess(worker int, key []byte) {
	if c.access == nil {
		return
	}
	r := &c.access[worker%len(c.access)]
	i := r.pos.Add(1)
	r.slots[i%accessRingSize].Store(Hash(key))
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	var drops int64
	for i := range c.rings {
		r := &c.rings[i]
		r.mu.Lock()
		drops += r.drops
		r.mu.Unlock()
	}
	return Stats{
		BytesLive:   c.BytesLive(),
		Evictions:   c.evictions.Load(),
		Expirations: c.expirations.Load(),
		GhostHits:   c.ghostHits.Load(),
		AdmitDrops:  drops,
	}
}

// NoteExpirations counts TTL-sweep drops (the sweep lives in the store,
// which owns the tree scan; the counter lives here with its siblings).
func (c *Cache) NoteExpirations(n int64) { c.expirations.Add(n) }

// Seed admits one key directly into the policy, bypassing the rings. Only
// for recovery, before any concurrent access exists: recovered keys enter
// the small queue in scan order and the first post-recovery Maintain
// re-enforces the bound over them.
func (c *Cache) Seed(key []byte, size int) {
	if c.entries == nil {
		return
	}
	c.maintMu.Lock()
	c.applyPut(Hash(key), key, int64(size))
	c.maintMu.Unlock()
}

// Maintain drains the admission and access feeds into the policy and, when
// the accounted total exceeds the budget, evicts down to the low watermark.
// evict must remove the key from the store (border-lock remove path,
// accounting decrement included) and report whether it did; it runs once
// per victim, outside any cache lock. Only the store's maintenance context
// may call Maintain.
func (c *Cache) Maintain(evict func(key []byte) bool) {
	if c.entries == nil {
		return
	}
	c.maintMu.Lock()
	c.needHelp.Store(false)
	c.drainAccess()
	c.drainAdmits()
	c.enforce(evict)
	c.maintMu.Unlock()
}

func (c *Cache) drainAccess() {
	for i := range c.access {
		r := &c.access[i]
		for j := range r.slots {
			h := r.slots[j].Swap(0)
			if h == 0 {
				continue
			}
			if e := c.entries[h]; e != nil && !e.dead && e.freq < 3 {
				e.freq++
			}
		}
	}
}

func (c *Cache) drainAdmits() {
	for i := range c.rings {
		r := &c.rings[i]
		r.mu.Lock()
		ev, arena := r.ev, r.arena
		r.ev, r.arena = c.evBuf[:0], c.arenaBuf[:0]
		r.mu.Unlock()
		for k := range ev {
			e := &ev[k]
			key := arena[e.off : e.off+e.klen]
			switch e.kind {
			case evPut:
				c.applyPut(e.hash, key, e.size)
			case evRemove:
				c.applyRemove(e.hash)
			}
		}
		// Hand the drained buffers back as next drain's swap-in pair.
		c.evBuf, c.arenaBuf = ev, arena
	}
}

// applyPut admits a new key (small queue; main directly on a ghost hit) or
// refreshes a tracked one.
func (c *Cache) applyPut(hash uint64, key []byte, size int64) {
	if e := c.entries[hash]; e != nil && !e.dead {
		// Refresh: accounting already charged the delta; the policy updates
		// its queue-occupancy mirror and treats the overwrite as an access.
		if e.small {
			c.smallBytes += size - e.size
		} else {
			c.mainBytes += size - e.size
		}
		e.size = size
		if e.freq < 3 {
			e.freq++
		}
		return
	}
	e := &entry{hash: hash, key: append([]byte(nil), key...), size: size}
	if _, hit := c.ghost[hash]; hit {
		c.ghostHits.Add(1)
		delete(c.ghost, hash)
		e.small = false
		c.main.push(e)
		c.mainBytes += size
	} else {
		e.small = true
		c.small.push(e)
		c.smallBytes += size
	}
	c.entries[hash] = e
}

func (c *Cache) applyRemove(hash uint64) {
	e := c.entries[hash]
	if e == nil || e.dead {
		return
	}
	c.forget(e)
}

// forget marks a queued entry dead and unindexes it; the queues skip dead
// entries lazily when they reach the head.
func (c *Cache) forget(e *entry) {
	e.dead = true
	if e.small {
		c.smallBytes -= e.size
	} else {
		c.mainBytes -= e.size
	}
	delete(c.entries, e.hash)
}

// enforce evicts until the accounted total is at or below the low
// watermark (or the policy runs out of candidates — untracked keys can
// keep the total above water; they are the store's to re-admit via later
// puts).
func (c *Cache) enforce(evict func(key []byte) bool) {
	if c.maxBytes <= 0 || c.BytesLive() <= c.maxBytes {
		return
	}
	// Bound the work: every iteration either evicts, promotes, or discards
	// a dead entry, and each entry can be promoted at most once per pass.
	budget := 2*(c.small.len()+c.main.len()) + 8
	for c.BytesLive() > c.lowWater && budget > 0 {
		budget--
		victim := c.pickVictim()
		if victim == nil {
			return // nothing tracked is evictable
		}
		if evict(victim.key) {
			c.evictions.Add(1)
		}
		// Evicted or already gone from the store: either way the policy
		// forgets it. Only small-queue evictions enter the ghost list —
		// a ghost hit is the signal "this key came right back after its
		// probation ended", which is what earns direct main admission.
		if victim.small {
			c.ghostAdd(victim.hash)
		}
		c.forget(victim)
	}
}

// pickVictim runs the S3-FIFO scan: pop from small while it is over its
// target share (promoting touched entries to main), otherwise from main
// (reinserting touched entries with decayed frequency).
func (c *Cache) pickVictim() *entry {
	for {
		fromSmall := c.small.len() > 0 && (c.smallBytes > c.smallTarget || c.main.len() == 0)
		if fromSmall {
			e := c.small.pop()
			if e == nil || e.dead {
				if e == nil {
					return nil
				}
				continue
			}
			if e.freq > 0 {
				// Touched during probation: promote to main.
				e.freq = 0
				e.small = false
				c.smallBytes -= e.size
				c.mainBytes += e.size
				c.main.push(e)
				continue
			}
			return e
		}
		e := c.main.pop()
		if e == nil {
			// Main empty; fall back to small even under its target.
			if c.small.len() == 0 {
				return nil
			}
			continue
		}
		if e.dead {
			continue
		}
		if e.freq > 0 {
			e.freq--
			c.main.push(e)
			continue
		}
		return e
	}
}

// ghostAdd remembers an evicted hash, bounded by the live entry count (at
// least a small floor) so the ghost list scales with the working set.
func (c *Cache) ghostAdd(hash uint64) {
	limit := len(c.entries)
	if limit < 1024 {
		limit = 1024
	}
	for len(c.ghost) >= limit && c.ghostHead < len(c.ghostQ) {
		old := c.ghostQ[c.ghostHead]
		c.ghostHead++
		delete(c.ghost, old)
	}
	if c.ghostHead > 64 && c.ghostHead*2 >= len(c.ghostQ) {
		n := copy(c.ghostQ, c.ghostQ[c.ghostHead:])
		c.ghostQ = c.ghostQ[:n]
		c.ghostHead = 0
	}
	if _, ok := c.ghost[hash]; ok {
		return
	}
	c.ghost[hash] = struct{}{}
	c.ghostQ = append(c.ghostQ, hash)
}
