package kvstore

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/breaker"
	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/value"
)

// loader is the read-through tier: on a cache miss, Session.GetOrLoad
// funnels into here, where exactly one flight per key runs the backend load
// while every concurrent miss for the same key parks on the flight's result
// (the thundering-herd protection ROADMAP calls for). Loaded values install
// through the ordinary put path — TTL in the packed header, an insert record
// in the WAL — so a loaded key is indistinguishable from a put key from then
// on. Authoritative backend misses are negative-cached briefly so an absent
// hot key cannot herd either.
//
// Degradation: when the backend cannot answer (circuit open, timeout,
// error), a resident value whose TTL lapsed no more than MaxStale ago may be
// served with a stale flag instead of an error; true misses propagate the
// error immediately — by construction a rejected call never queued behind
// the dead backend.
type loader struct {
	s  *Store
	be backend.Backend

	mu      sync.Mutex
	flights map[string]*flight

	negMu sync.Mutex
	neg   map[string]int64 // key -> negative-cache deadline (unix nanos)

	negN atomic.Int64 // len(neg), readable without the lock

	loads         atomic.Uint64 // values installed from backend loads
	loadErrors    atomic.Uint64 // flights that ended in a backend error
	herdCoalesced atomic.Uint64 // misses that joined an existing flight
	staleServed   atomic.Uint64 // stale-if-error responses
	negativeHits  atomic.Uint64 // misses answered by the negative cache

	// lastBreaker is the breaker state the last load observed, so state
	// transitions (trip, heal) become flight-recorder events without
	// touching the backend wrapper's seam.
	lastBreaker atomic.Int32
}

// flight is one in-progress backend load; waiters park on done.
type flight struct {
	done  chan struct{}
	val   *value.Value // nil: authoritative miss (or err != nil)
	stale bool
	err   error
}

// negMax bounds the negative cache; one arbitrary entry is evicted per
// insert beyond it, which suffices to keep it from growing without bound
// under a scan of absent keys.
const negMax = 4096

func newLoader(s *Store, be backend.Backend) *loader {
	return &loader{
		s:       s,
		be:      be,
		flights: make(map[string]*flight),
		neg:     make(map[string]int64),
	}
}

// load resolves a miss for key: join an existing flight or lead a new one.
func (l *loader) load(ctx context.Context, ss *Session, key []byte) (*value.Value, bool, error) {
	if l.negHit(key) {
		l.negativeHits.Add(1)
		return nil, false, nil
	}
	k := string(key)
	l.mu.Lock()
	if f, ok := l.flights[k]; ok {
		l.mu.Unlock()
		l.herdCoalesced.Add(1)
		select {
		case <-f.done:
			return f.val, f.stale, f.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	l.flights[k] = f
	l.mu.Unlock()
	f.val, f.stale, f.err = l.runFlight(ctx, ss, key)
	// Unpublish before release: a miss arriving after close(done) must start
	// a fresh flight, not join a finished one.
	l.mu.Lock()
	delete(l.flights, k)
	l.mu.Unlock()
	close(f.done)
	return f.val, f.stale, f.err
}

// runFlight is the flight leader's body.
func (l *loader) runFlight(ctx context.Context, ss *Session, key []byte) (*value.Value, bool, error) {
	// Re-check residency: a put or a competing earlier flight may have landed
	// between the caller's miss and this flight winning the table slot.
	if v, stale, ok := l.resident(ss, key, false); ok {
		return v, stale, nil
	}
	// A value parked in the write-behind queue is newer than anything the
	// backend holds — the spill that created it may still be in flight.
	// Serving the backend's copy here would time-travel an acked write.
	if wb := l.s.wb; wb != nil {
		if v, pending := wb.peek(key); pending {
			if v == nil || expired(l.s.wall, v) {
				return nil, false, nil // pending delete (or dead by TTL): miss
			}
			return l.install(ss, key, v.Cols(), v.ExpiresAt()), false, nil
		}
	}
	loadStart := l.s.wall.Now()
	payload, ttl, ok, err := l.be.Load(ctx, key)
	l.s.obs.Hist(obs.HBackendLoad).Record(ss.worker, l.s.wall.Now().Sub(loadStart))
	l.noteBreaker(ss.worker)
	if err != nil {
		l.loadErrors.Add(1)
		l.s.obs.Recorder().Record(ss.worker, obs.EvLoadError, cache.Hash(key), 0)
		if v, _, ok := l.resident(ss, key, true); ok {
			l.staleServed.Add(1)
			return v, true, nil
		}
		return nil, false, err
	}
	if !ok {
		l.noteNegative(key)
		return nil, false, nil
	}
	cols, err := backend.DecodeCols(payload)
	if err != nil {
		l.loadErrors.Add(1)
		return nil, false, err
	}
	var expiresAt uint64
	if ttl > 0 {
		expiresAt = l.s.deadline(ttl)
	}
	v := l.install(ss, key, cols, expiresAt)
	l.loads.Add(1)
	return v, false, nil
}

// noteBreaker traces a breaker state change since the last load observed
// it: a trip into breaker.Open and a heal out of it both become flight
// events, detected by state comparison so the backend wrapper's seam stays
// untouched. Called after each backend load.
func (l *loader) noteBreaker(worker int) {
	bs, ok := l.be.(interface{ Stats() backend.Stats })
	if !ok {
		return
	}
	st := bs.Stats()
	prev := l.lastBreaker.Swap(int32(st.BreakerState))
	if prev == int32(st.BreakerState) {
		return
	}
	if st.BreakerState == breaker.Open {
		l.s.obs.Recorder().Record(worker, obs.EvBreakerOpen, st.BreakerOpens, 0)
	} else {
		l.s.obs.Recorder().Record(worker, obs.EvBreakerHeal, uint64(st.BreakerState), 0)
	}
}

// resident checks the tree for a servable value.
// With allowStale false only a live value qualifies; with true (the
// stale-if-error path) a value whose expiry lapsed no more than MaxStale
// ago qualifies too, and the stale return distinguishes the two.
func (l *loader) resident(ss *Session, key []byte, allowStale bool) (v *value.Value, stale, ok bool) {
	v, found := l.s.tree.Get(key)
	if !found {
		return nil, false, false
	}
	e := v.ExpiresAt()
	if e == 0 {
		return v, false, true
	}
	now := uint64(l.s.wall.Now().UnixNano())
	if e > now {
		return v, false, true
	}
	if allowStale && l.s.cfg.MaxStale > 0 && now-e <= uint64(l.s.cfg.MaxStale) {
		return v, true, true
	}
	return nil, false, false
}

// install publishes a loaded value through the store's put path (logged as
// an insert, cache-accounted) unless a racing real put
// already made the key live — the put wins and is served instead.
func (l *loader) install(ss *Session, key []byte, cols [][]byte, expiresAt uint64) *value.Value {
	v := l.s.installLoaded(ss.worker, key, cols, expiresAt)
	l.s.cache.NoteAccess(ss.worker, key)
	return v
}

// negHit reports whether key is inside its negative-cache window.
func (l *loader) negHit(key []byte) bool {
	if l.s.cfg.NegativeTTL <= 0 || l.negN.Load() == 0 {
		return false
	}
	l.negMu.Lock()
	dl, ok := l.neg[string(key)]
	if ok && l.s.wall.Now().UnixNano() >= dl {
		delete(l.neg, string(key))
		l.negN.Add(-1)
		ok = false
	}
	l.negMu.Unlock()
	return ok
}

// noteNegative records an authoritative backend miss for NegativeTTL.
func (l *loader) noteNegative(key []byte) {
	if l.s.cfg.NegativeTTL <= 0 {
		return
	}
	dl := l.s.wall.Now().Add(l.s.cfg.NegativeTTL).UnixNano()
	l.negMu.Lock()
	if len(l.neg) >= negMax {
		for k := range l.neg {
			delete(l.neg, k)
			l.negN.Add(-1)
			break
		}
	}
	if _, ok := l.neg[string(key)]; !ok {
		l.negN.Add(1)
	}
	l.neg[string(key)] = dl
	l.negMu.Unlock()
}

// noteWrite drops key's negative-cache entry. Every put path calls this: a
// write makes the key exist, and letting a pre-write "absent upstream"
// verdict survive would turn an acked put into a miss if eviction dropped
// the key inside the negative-TTL window. The atomic emptiness check keeps
// the cost off backend-free and negative-free write paths.
func (l *loader) noteWrite(key []byte) {
	if l.s.cfg.NegativeTTL <= 0 || l.negN.Load() == 0 {
		return
	}
	l.negMu.Lock()
	if _, ok := l.neg[string(key)]; ok {
		delete(l.neg, string(key))
		l.negN.Add(-1)
	}
	l.negMu.Unlock()
}

// writeBehind is the bounded, per-key-coalescing spill queue: eviction's
// clean drops (and Remove's tombstones) enqueue here and an asynchronous
// drainer pushes them to the backend. An entry stays visible to peek while
// its store is in flight, so a read-through load can never resurrect the
// pre-spill copy of a key whose newest value is still on its way upstream.
type writeBehind struct {
	be   backend.Backend
	cap  int
	wall clock.Clock

	mu   sync.Mutex
	keys []string                // FIFO of keys with a pending spill
	vals map[string]*value.Value // pending value per key; nil = delete
	// empty is made when an enqueue finds vals empty and closed when vals
	// empties again: what drain waits on.
	empty chan struct{}

	drops atomic.Uint64 // entries evicted from a full queue
	kick  chan struct{}
	stop  chan struct{}
	done  chan struct{}
}

func newWriteBehind(be backend.Backend, depth int, wall clock.Clock) *writeBehind {
	wb := &writeBehind{
		be:   be,
		cap:  depth,
		wall: wall,
		vals: make(map[string]*value.Value, depth),
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go wb.drainLoop()
	return wb
}

// enqueue queues key's last published value (nil = delete upstream). Values
// are immutable, so retaining the pointer is safe and free. A same-key
// entry already queued is coalesced in place; a full queue drops its oldest
// entry (counted) — the spill is best-effort by contract.
func (wb *writeBehind) enqueue(key []byte, v *value.Value) {
	k := string(key)
	wb.mu.Lock()
	if _, queued := wb.vals[k]; queued {
		wb.vals[k] = v
		wb.mu.Unlock()
		return
	}
	if len(wb.vals) == 0 {
		wb.empty = make(chan struct{})
	}
	if len(wb.keys) >= wb.cap {
		oldest := wb.keys[0]
		wb.keys = wb.keys[1:]
		delete(wb.vals, oldest)
		wb.drops.Add(1)
	}
	wb.keys = append(wb.keys, k)
	wb.vals[k] = v
	wb.mu.Unlock()
	select {
	case wb.kick <- struct{}{}:
	default:
	}
}

// peek returns key's pending spill value (nil, true for a pending delete).
func (wb *writeBehind) peek(key []byte) (*value.Value, bool) {
	wb.mu.Lock()
	v, ok := wb.vals[string(key)]
	wb.mu.Unlock()
	return v, ok
}

// depth reports how many keys have a pending (or in-flight) spill.
func (wb *writeBehind) depth() int {
	wb.mu.Lock()
	n := len(wb.vals)
	wb.mu.Unlock()
	return n
}

// drainLoop pushes pending entries upstream one at a time. The entry stays
// in vals while its store runs (peek visibility); if a newer value coalesced
// in meanwhile, the key is re-queued instead of dropped.
func (wb *writeBehind) drainLoop() {
	defer close(wb.done)
	for {
		if !wb.drainOne(context.Background()) {
			select {
			case <-wb.kick:
			case <-wb.stop:
				return
			}
		}
	}
}

// drainOne spills the queue's front entry; false means the queue was empty.
func (wb *writeBehind) drainOne(ctx context.Context) bool {
	wb.mu.Lock()
	if len(wb.keys) == 0 {
		wb.mu.Unlock()
		return false
	}
	k := wb.keys[0]
	wb.keys = wb.keys[1:]
	v, ok := wb.vals[k]
	wb.mu.Unlock()
	if !ok {
		return true // dropped by a full-queue eviction after being popped
	}
	// Success or failure, the entry completes: write-behind is best-effort
	// (Wrap already retried), and holding a failed entry forever would wedge
	// the queue behind a dead backend. The wrapper's error counters record
	// the loss. Dead-by-TTL values are not worth shipping.
	if v == nil {
		_ = wb.be.Delete(ctx, []byte(k))
	} else if !expired(wb.wall, v) {
		_ = wb.be.Store(ctx, []byte(k), backend.EncodeCols(v.Cols()))
	}
	// A value that coalesced in while the store ran re-queues.
	wb.mu.Lock()
	if cur, still := wb.vals[k]; still {
		if cur == v {
			delete(wb.vals, k)
			if len(wb.vals) == 0 {
				close(wb.empty)
			}
		} else {
			wb.keys = append(wb.keys, k)
		}
	}
	wb.mu.Unlock()
	return true
}

// drain blocks until the queue is empty or the timeout lapses; it reports
// whether the queue fully drained. Used by graceful shutdown.
func (wb *writeBehind) drain(timeout time.Duration) bool {
	wb.mu.Lock()
	empty, idle := wb.empty, len(wb.vals) == 0
	wb.mu.Unlock()
	if idle {
		return true
	}
	t := wb.wall.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-empty:
		return true
	case <-t.C():
		return false
	}
}

// close stops the drainer after a best-effort final drain.
func (wb *writeBehind) close(timeout time.Duration) bool {
	ok := wb.drain(timeout)
	close(wb.stop)
	<-wb.done
	return ok
}

// LoaderStats snapshots the read-through tier's counters. Zero-valued when
// no backend is configured. Backend carries the Wrap decorator's health
// counters when the configured backend exposes them (see backend.Stats).
type LoaderStats struct {
	Loads            uint64
	LoadErrors       uint64
	HerdCoalesced    uint64
	StaleServed      uint64
	NegativeHits     uint64
	WriteBehindDepth int
	WriteBehindDrops uint64
	Backend          backend.Stats
	HasBackend       bool
}

// LoaderStats reports the read-through/write-behind tier's counters.
func (s *Store) LoaderStats() LoaderStats {
	var st LoaderStats
	if s.loader == nil {
		return st
	}
	st.HasBackend = true
	st.Loads = s.loader.loads.Load()
	st.LoadErrors = s.loader.loadErrors.Load()
	st.HerdCoalesced = s.loader.herdCoalesced.Load()
	st.StaleServed = s.loader.staleServed.Load()
	st.NegativeHits = s.loader.negativeHits.Load()
	if s.wb != nil {
		st.WriteBehindDepth = s.wb.depth()
		st.WriteBehindDrops = s.wb.drops.Load()
	}
	if bs, ok := s.loader.be.(interface{ Stats() backend.Stats }); ok {
		st.Backend = bs.Stats()
	}
	return st
}
