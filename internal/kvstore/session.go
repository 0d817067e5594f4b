package kvstore

import (
	"context"
	"errors"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/value"
)

// Session is the one way to operate on a Store: get, put, remove and
// getrange (§3) and their batched forms are its methods, and a Store itself
// only opens, checkpoints, flushes, reports and closes. A session binds its
// operations to one worker's log (each query thread maintains its own log
// file and in-memory log buffer, §5) and owns the scratch its batched calls
// return results in.
//
// A Session is not safe for concurrent use; create one per worker goroutine.
type Session struct {
	s      *Store
	worker int

	batch batchScratch // PointBatchInto's scratch
}

// batchScratch holds a session's reusable state for PointBatchInto and its
// all-get and all-put faces: the result slices and the core tree's batch
// scratch. It makes steady-state batched reads and writes allocation-free
// (beyond the packed values a put must build).
type batchScratch struct {
	vals  []*value.Value
	found []bool
	res   []writeResult // the puts' step results, by key; zero for a get
	out   []uint64      // the puts' versions, by key
	core  core.BatchScratch
}

// Session creates a session bound to the given worker's log.
func (s *Store) Session(worker int) *Session {
	return &Session{s: s, worker: worker}
}

// Worker reports the worker id the session is bound to — the index of the
// log stream its puts append to, and the shard its latency observations
// land in.
func (ss *Session) Worker() int { return ss.worker }

// Close does nothing: a session holds nothing to release. Only the benchmark
// harness calls it (harness.go, replay.go, restart.go and one of its tests),
// so deleting those calls deletes the method.
func (ss *Session) Close() {}

// GetValue returns key's current packed value, or (nil, false) if the key
// is absent or lazily expired; AppendCols or v.Col project its columns.
// Values are immutable and garbage-collected, so the result stays safe to
// read after the call (the column slices alias it, so nothing is copied);
// the server uses this to surface value versions alongside columns (CAS
// needs a version to expect). In cache mode the read records the key's hash
// into the worker's lossy access ring — an atomic add and store, still
// allocation-free.
//
//masstree:noalloc
func (ss *Session) GetValue(key []byte) (*value.Value, bool) {
	ss.s.cache.NoteAccess(ss.worker, key)
	v, ok := ss.s.tree.Get(key)
	if !ok || expired(ss.s.wall, v) {
		return nil, false
	}
	return v, true
}

// Put applies the column modifications to key atomically, logging through
// the session's log, and returns the new value's version. Nothing is
// retained: the puts slice, the Data bytes, and the key are all copied (into
// the packed value and the log buffer), so callers may reuse their buffers
// immediately.
//
// A put that leaves some of the replaced value's columns in place is
// logged as a delta chained to that value's version (wal format v2). A put
// whose columns make the new value on their own is logged as an insert, with
// no link; so is a put over a value stamped through a different worker's log
// (base.Worker() != worker — a cross-log handoff), which carries every
// column of the value it published, anchoring the key's chain in this log.
// No replay chain ever spans log files without an anchor, so a vanished log
// is always detectable at recovery.
func (ss *Session) Put(key []byte, puts []value.ColPut) uint64 {
	return ss.s.write(ss.worker, key, writeOp{puts: puts}).ver
}

// PutSimple stores data as column 0. Neither key nor data is retained.
func (ss *Session) PutSimple(key, data []byte) uint64 {
	return ss.Put(key, []value.ColPut{{Col: 0, Data: data}})
}

// PutTTL is Put with a time to live: the key expires ttl from now on the
// store's clock (0 behaves like Put; a negative ttl writes a value already
// lapsed). From its deadline on the key reads as absent (lazy expiry on
// every get and scan), and the maintenance loop's background sweep
// eventually removes it physically — a clean drop that writes no WAL record,
// since the expiry rides in the logged value itself (wal.OpPutTTL) and
// replay re-expires it.
// A write over a lazily-expired value builds on an absent base (see step):
// dead columns are never resurrected.
func (ss *Session) PutTTL(key []byte, puts []value.ColPut, ttl time.Duration) uint64 {
	return ss.s.write(ss.worker, key, writeOp{puts: puts, expiry: ss.s.deadline(ttl), ttl: true}).ver
}

// Touch resets key's expiry to ttl from now on the store's clock (0 = never
// expire again) without changing its columns, publishing a fresh value
// under a new version. Returns the new version and ok false if the key is
// absent (or already expired — touching the dead does not revive them).
func (ss *Session) Touch(key []byte, ttl time.Duration) (ver uint64, ok bool) {
	r := ss.s.write(ss.worker, key, writeOp{expiry: ss.s.deadline(ttl), ttl: true, base: onlyLive})
	return r.ver, r.nv != nil
}

// CasPut is a versioned conditional Put (Deuteronomy-style latch-free
// read-modify-write exposed through the API): the column modifications
// apply only if key's current version equals expect, with expect == 0
// meaning "key absent" (so expect 0 is an atomic create-if-absent). The
// comparison runs under the owning border node's lock — the same lock the
// write publishes under, shared with the batched put path — so no window
// exists between check and write. On success it behaves exactly like Put
// (logged as an ordinary put through the session's log) and returns the new
// version with ok true; on mismatch nothing changes and it returns the
// current version (0 if absent) with ok false, letting the caller re-read
// and rebase. A lazily-expired value reads as absent everywhere, so CAS
// sees it as absent too: expect == 0 succeeds over it instead of
// livelocking on a version no read can observe. Neither puts nor their Data
// slices are retained.
func (ss *Session) CasPut(key []byte, expect uint64, puts []value.ColPut) (ver uint64, ok bool) {
	r := ss.s.write(ss.worker, key, writeOp{puts: puts, cas: true, expect: expect})
	if r.nv == nil {
		return r.base.Version(), false
	}
	return r.ver, true
}

// Remove deletes key, logging through the session's log: the drop kernel,
// its timestamp appended as the remove's record inside the worker's
// draw-to-append window.
func (ss *Session) Remove(key []byte) bool {
	s, worker := ss.s, ss.worker
	if s.logs != nil {
		mu := s.lockWorker(worker)
		defer mu.Unlock()
	}
	old, ver := s.drop(worker, key, nil)
	if old == nil {
		return false
	}
	if s.logs != nil {
		b := s.logs.Writer(worker).Begin()
		b.Remove(ver, key)
		b.End()
	}
	s.cache.NoteRemove(worker, key)
	s.cache.HelpEnforce(s.evictKey) // drains a ring the remove took past half
	// Read-through stores propagate the delete upstream (a tombstone in the
	// write-behind queue); without it the next GetOrLoad would resurrect the
	// removed key from the backend.
	if s.wb != nil {
		s.wb.enqueue(key, nil)
	}
	// A lazily-expired value reads as absent on every path, so removing it
	// must report "did not exist" too (memcached's delete-of-expired is a
	// miss). The physical removal and its log record still happen above —
	// the remove is correct cleanup either way.
	return !expired(s.wall, old)
}

// ErrNoBackend is returned by GetOrLoad when the store has no configured
// backend tier — a miss then has nowhere to read through to.
var ErrNoBackend = errors.New("kvstore: no backend configured")

// GetOrLoad returns key's value, reading through the configured backend on
// miss. The in-memory hit path is GetValue — allocation-free, never
// blocking, and noted by the cache policy like any read — while a miss
// funnels into the loader: exactly one backend flight per key runs at a
// time and every concurrent miss parks on its result (herd protection),
// honoring ctx while parked.
//
// Returns (value, stale, error). A nil value with nil error is an
// authoritative miss (absent both in memory and upstream, possibly
// negative-cached). stale is true when the backend could not answer and the
// value is a resident expired one served under the MaxStale window; values
// are immutable, so the result stays readable after the call regardless.
func (ss *Session) GetOrLoad(ctx context.Context, key []byte) (*value.Value, bool, error) {
	if v, ok := ss.GetValue(key); ok {
		return v, false, nil
	}
	if ss.s.loader == nil {
		return nil, false, ErrNoBackend
	}
	return ss.s.loader.load(ctx, ss, key)
}

// PointBatchInto serves a stretch of point operations — gets and puts, a
// frame's worth — as one batch (§4.8's batching, for reads and writes at
// once) through the session's log. put[i] says that keys[i] is a put of the
// column modifications puts[i]; the other keys are gets. A nil put means
// the keys are all of one kind: gets if puts is nil too (GetBatchInto), puts
// otherwise (PutBatchInto).
//
// Every key descends in one wave over the whole batch (core.Tree.BatchInto):
// a get is answered from it, a lazily-expired value as absent; the puts are
// applied in tree order, each run of them owned by one border node under one
// acquisition of its lock and starting at the border the wave found, all
// inside one draw-to-append window, their records encoded under one
// log-buffer lock and accounted together. In cache mode every get is noted
// by the eviction policy, as GetValue's is.
//
// Operations on different keys take effect in no particular order — they
// share one invoke-to-return interval, and the puts are reordered already.
// Operations on one key take effect in input order: its puts are applied in
// that order, a get ahead of them all reads what the wave saw, and a get
// behind one reads the value that put published.
//
// vals and found report the gets, vers the puts' versions; all three are
// indexed as keys is, live in the session's scratch and are valid until the
// session's next batched call. No inputs are retained.
func (ss *Session) PointBatchInto(keys [][]byte, put []bool, puts [][]value.ColPut) (vals []*value.Value, found []bool, vers []uint64) {
	s, worker, sc := ss.s, ss.worker, &ss.batch
	n, nputs := len(keys), 0
	if put == nil && puts != nil {
		nputs = n
	}
	for _, p := range put {
		if p {
			nputs++
		}
	}
	for i := range puts {
		if put == nil || put[i] {
			checkCols(puts[i])
		}
	}
	if nputs < n && s.cache.EvictionEnabled() {
		for i, k := range keys {
			if put == nil || !put[i] {
				s.cache.NoteAccess(worker, k)
			}
		}
	}
	if nputs == 0 || nputs == n {
		put = nil // one kind after all: the tree's all-get or all-put case
	}
	if nputs < n {
		sc.vals, sc.found = slices.Grow(sc.vals[:0], n)[:n], slices.Grow(sc.found[:0], n)[:n]
		vals, found = sc.vals, sc.found
	}
	if nputs > 0 {
		sc.res, sc.out = slices.Grow(sc.res[:0], n)[:n], slices.Grow(sc.out[:0], n)[:n]
		vers = sc.out
		if s.logs != nil {
			mu := s.lockWorker(worker)
			defer mu.Unlock()
		}
	}
	s.tree.BatchInto(keys, put, vals, found, &sc.core, func(i int, old *value.Value) *value.Value {
		r := s.step(worker, writeOp{puts: puts[i]}, old)
		sc.res[i], sc.out[i] = r, r.ver
		return r.nv
	})
	for i := range vals {
		if put != nil {
			if put[i] {
				continue
			}
			if j := sc.core.PutBefore(keys, i); j >= 0 {
				vals[i], found[i] = sc.res[j].nv, true
			}
		}
		if found[i] && expired(s.wall, vals[i]) {
			vals[i], found[i] = nil, false
		}
	}
	if nputs > 0 {
		if s.logs != nil {
			s.logWrite(worker, keys, puts, sc.res, false, 0)
		}
		s.finishWrite(worker, keys, sc.res, 0)
		clear(sc.res) // an idle scratch must not pin values later overwritten
	}
	return vals, found, vers
}

// GetBatchInto is PointBatchInto with every key a get: the batched lookup,
// allocation-free, its results valid until the session's next batched call.
// Column extraction is the caller's job (each request in a batch may want
// different columns); use AppendCols.
func (ss *Session) GetBatchInto(keys [][]byte) ([]*value.Value, []bool) {
	vals, found, _ := ss.PointBatchInto(keys, nil, nil)
	return vals, found
}

// PutBatchInto is PointBatchInto with every key a put: puts[i] lists key
// i's column modifications, and the returned versions (input order) are
// valid until the session's next batched call. Duplicate keys apply in
// input order.
func (ss *Session) PutBatchInto(keys [][]byte, puts [][]value.ColPut) []uint64 {
	_, _, vers := ss.PointBatchInto(keys, nil, puts)
	return vers
}

// GetRangeInto returns up to n pairs starting at the first key >= start,
// with the requested columns (nil = all), appended into sc's reusable arenas
// (see rangeInto). Like the paper's getrange it is not atomic with respect
// to concurrent inserts and updates (§3). Lazily-expired values are skipped
// without counting toward n; a scan crossing an extremely large expired
// region (see maxRangeScanVisits) may return fewer than n pairs before the
// background sweep reclaims it.
//
//masstree:noalloc
func (ss *Session) GetRangeInto(start []byte, n int, cols []int, sc *RangeScratch) []Pair {
	return ss.s.rangeInto(start, n, cols, sc)
}

// GetRangeBatchInto serves several range queries — range i is up to ns[i]
// pairs from starts[i], projected to cols[i] — in one call. Their start
// keys first descend together (core.Tree.Prefetch: sixteen descents in
// flight, found values discarded), so that each range, run in input order
// exactly as GetRangeInto would run it alone, begins at a border node that
// is already in cache. A lone range skips that descent: it has no other
// descent to overlap its misses with, and its own scan descends anyway.
// Window i of the result holds range i's pairs: the pairs live in sc until
// sc.Reset, the slice of windows until the next call with sc.
//
//masstree:noalloc
func (ss *Session) GetRangeBatchInto(starts [][]byte, ns []int, cols [][]int, sc *RangeScratch) [][]Pair {
	if len(starts) > 1 {
		ss.s.tree.Prefetch(starts, &ss.batch.core)
	}
	sc.runs = sc.runs[:0]
	for i, start := range starts {
		sc.runs = append(sc.runs, ss.s.rangeInto(start, ns[i], cols[i], sc))
	}
	return sc.runs
}
