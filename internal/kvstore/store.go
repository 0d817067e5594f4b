// Package kvstore assembles Masstree the system (§3, §5): the core tree,
// multi-column values, per-worker logging with group commit, periodic
// checkpoints, recovery, and background maintenance.
//
// The store supports the paper's four operations — get(k), put(k, v),
// remove(k), and getrange(k, n) — each with an optional list of column
// numbers. Multi-column puts are atomic: a concurrent get sees all or none
// of a put's column modifications (§4.7).
//
// Version numbers and timestamps: the store draws both from per-worker
// loosely synchronized clocks (§5.1, see shardedClock), assigned under the
// owning border node's lock and lifted past the replaced value's version
// (inserts: past every value a remove or a drop retired). Sequential updates
// thus obtain distinct increasing versions, log records are totally ordered
// per key (even across a drop and a re-insert), and recovery can apply
// each key's updates in increasing version order after cutting off at
// t = min over logs of the log's maximum durable timestamp (§5) — all
// without the global clock cache line every writer used to bounce.
//
// Every write — Put, PutTTL, Touch, CasPut, Remove, a backend load's
// install, a batch — is one kernel in three stages with one driver, and the
// entry points are descriptors of it (writeOp). step, under the owning
// border node's lock, decides the base once, draws the version, reads the
// chain link and builds exactly one packed value (§4.7), or retires the
// value a remove takes out; logWrite appends the records under one buffer
// lock, encoded directly into the worker's own double-buffered log (§5);
// finishWrite accounts. The driver (Session.pointBatch) runs the steps of a
// batch — a frame's stretch of gets and puts, all descending in one wave
// (§4.8), or a single key — in tree order, from the borders the wave found,
// with one border-node lock acquisition per run of co-located keys. The put
// pipeline allocates only the value itself, at any volume: the log's buffers
// survive their flushes. Eviction and the TTL sweep take keys out by a clean
// drop, which logs nothing.
package kvstore

import (
	"bytes"
	"cmp"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/obs"
	"repro/internal/superpage"
	"repro/internal/value"
	"repro/internal/vfs"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Config configures a Store.
type Config struct {
	// Dir is the persistence directory for logs and checkpoints. Empty
	// disables persistence entirely (a pure in-memory store).
	Dir string
	// Workers is the number of per-worker log files (the paper gives each
	// query thread its own log). Defaults to 1.
	Workers int
	// FlushInterval bounds how long a logged update may stay unforced
	// (200 ms in the paper). Defaults to wal.DefaultFlushInterval.
	FlushInterval time.Duration
	// SyncWrites forces logs to storage on each flush (fsync).
	SyncWrites bool
	// FS is the filesystem seam for logs and checkpoints. Nil means the
	// real filesystem; tests inject vfs.MemFS/vfs.Fault to model crashes
	// at every write/fsync/rename boundary.
	FS vfs.FS
	// MaxBytes switches the store into cache mode: accounted live bytes
	// (packed value sizes) are kept at or below this bound by the
	// S3-FIFO-inspired eviction policy running from the maintenance loop.
	// 0 disables eviction (the store only grows, as before). Evictions are
	// clean drops — no WAL remove is written — so after a crash evicted
	// keys may replay back; recovery then re-enforces the bound. See
	// internal/cache and the package comment's cache-mode section.
	MaxBytes int
	// Backend, when non-nil, arms the read-through tier: Session.GetOrLoad
	// resolves misses by loading from it (one flight per key, concurrent
	// misses coalesce), and Remove/eviction feed the write-behind queue.
	// Wrap it with backend.Wrap to get timeouts, retries, and the circuit
	// breaker; the store calls whatever it is given.
	Backend backend.Backend
	// NegativeTTL is how long an authoritative backend miss is remembered,
	// so absent hot keys cannot herd the backend either. 0 defaults to 1s;
	// negative disables negative caching.
	NegativeTTL time.Duration
	// MaxStale bounds stale-if-error: when the backend cannot answer,
	// GetOrLoad may serve a resident value whose TTL lapsed no more than
	// this long ago, flagged stale. 0 disables (errors propagate).
	MaxStale time.Duration
	// WriteBehind is the spill queue's depth in keys; eviction's clean
	// drops and Remove's tombstones queue here and drain to the Backend
	// asynchronously, coalescing per key, dropping the oldest entry (and
	// counting the drop) when full. 0 disables write-behind.
	WriteBehind int
}

// Pair is one key plus requested columns, returned by GetRangeInto. It is
// the wire's pair, so a server answers a range with the store's window.
type Pair = wire.Pair

// Store is a persistent in-memory key-value store backed by a Masstree.
// All methods are safe for concurrent use.
type Store struct {
	cfg   Config
	fsys  vfs.FS
	tree  *core.Tree
	clock *shardedClock // the §5.1 version clocks
	// wall is the wall clock: TTL deadlines, negative-cache and drain
	// deadlines, the maintenance tick, the log's flush interval and the
	// latency samples. It orders nothing; versions come from clock.
	wall  clock.Clock
	logs  *wal.Set      // nil when persistence is disabled
	mgr   epoch.Manager // serves only Epoch, kept for the benchmark harness
	cache *cache.Cache

	// loader/wb are the read-through and write-behind tiers; both nil when
	// no Backend is configured (wb additionally requires WriteBehind > 0).
	loader *loader
	wb     *writeBehind

	// ttlUsed arms the maintenance loop's expiry sweep the first time any
	// value carries an expiry (PutTTL/Touch, or a recovered TTL record), so
	// TTL-free stores never pay for tree sweeps.
	ttlUsed atomic.Bool
	// sweepCursor/sweepKeys are the incremental expiry sweep's position and
	// reusable victim buffer; owned by the maintenance context.
	sweepCursor []byte
	sweepKeys   [][]byte
	sweepArena  []byte
	sweepBuf    []byte

	// workerMu[w] serializes worker w's version-draw-to-log-append window
	// (only taken when logging is enabled). Sessions sharing a worker id
	// would otherwise interleave draw and append, letting a key's records
	// reach the shared log out of timestamp order — after a crash the log's
	// maximum durable timestamp would then claim a lost record as durable
	// and replay a later delta onto an earlier state. With one session per
	// worker (the paper's arrangement) the mutex is uncontended and stays
	// on its own cache line. It also gates timestamp marks: the maintenance
	// loop marks a log only when it can TryLock the worker, proving no
	// drawn-but-unappended version exists below the mark.
	workerMu []paddedMutex

	ckptMu sync.Mutex // one checkpoint at a time

	// obs is the observability registry: latency histograms for every
	// internal stage plus the flight recorder. Always built; its record
	// paths are allocation-free and wait-free.
	obs *obs.Registry

	// recovered is what Open's recovery observed; immutable afterwards.
	recovered RecoveryStats

	stop chan struct{}
	wg   sync.WaitGroup
}

// RecoveryStats reports what Open's recovery observed. Both counts are
// zero on a clean restart; nonzero values mean log state vanished between
// the crash and the reopen (operator intervention, device loss) and
// recovery detected it instead of serving a mis-merged value.
type RecoveryStats struct {
	// BrokenChains counts keys whose replay chain had a broken prev link —
	// a partial-column record whose base was never rebuilt because a
	// predecessor's log vanished. Each such key was rolled back to its
	// last anchored prefix rather than mis-merged.
	BrokenChains int64
	// MissingLogs counts log files the directory's logset expected but
	// recovery could not find (wal.RecoveryResult.MissingLogs).
	MissingLogs int64
}

// RecoveryStats reports what the last Open's recovery observed.
func (s *Store) RecoveryStats() RecoveryStats { return s.recovered }

// Obs returns the store's observability registry — latency histograms and
// the flight recorder.
func (s *Store) Obs() *obs.Registry { return s.obs }

// obsRecoveryPhase records one recovery phase: its duration lands in the
// recovery histogram and as a flight-recorder event, and the phase clock
// advances so the next phase measures only itself.
func (s *Store) obsRecoveryPhase(phase uint64, start *time.Time) {
	now := s.wall.Now()
	d := now.Sub(*start)
	*start = now
	s.obs.Hist(obs.HRecovery).Record(0, d)
	s.obs.Recorder().Record(0, obs.EvRecoveryPhase, phase, uint64(d))
}

// Open creates a store, recovering from the newest valid checkpoint plus
// logs when cfg.Dir holds a previous incarnation's state.
func Open(cfg Config) (*Store, error) { return open(cfg, clock.Wall{}) }

// open is Open on the wall clock wall.
func open(cfg Config, wall clock.Clock) (*Store, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	// step tells a cross-log handoff from a delta by comparing a value's
	// worker tag with the writing worker's id, so every id must fit the tag.
	if cfg.Workers-1 > value.MaxWorker {
		return nil, fmt.Errorf("kvstore: %d workers exceed the value worker tag's range (at most %d)", cfg.Workers, value.MaxWorker+1)
	}
	if cfg.NegativeTTL == 0 {
		cfg.NegativeTTL = time.Second
	}
	s := &Store{
		cfg:      cfg,
		fsys:     cfg.FS,
		tree:     core.New(),
		clock:    newShardedClock(cfg.Workers),
		wall:     wall,
		cache:    cache.New(cfg.Workers, cfg.MaxBytes),
		workerMu: make([]paddedMutex, cfg.Workers),
		stop:     make(chan struct{}),
	}
	if s.fsys == nil {
		s.fsys = vfs.OS{}
	}
	// Built before recovery so the recovery phases are themselves timed and
	// replay's chain rollbacks land in the flight recorder.
	s.obs = obs.NewRegistry(cfg.Workers)
	if cfg.Dir != "" {
		if err := s.fsys.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, err
		}
		if err := s.recover(); err != nil {
			return nil, err
		}
	}
	if cfg.Backend != nil {
		s.loader = newLoader(s, cfg.Backend)
		if cfg.WriteBehind > 0 {
			s.wb = newWriteBehind(cfg.Backend, cfg.WriteBehind, wall)
		}
	}
	// Cache mode re-enforces the bound over recovered state: replay may have
	// brought back evicted keys (their drops were never logged) and the
	// accounted total starts from whatever survived, so seed the policy with
	// every recovered key and evict straight back down to the budget before
	// serving.
	s.seedCache()
	s.wg.Add(1)
	go s.maintainLoop(wall.NewTicker(maintainTick))
	return s, nil
}

// seedCache charges the accounting shards for every key already in the tree
// (recovered state) and, in cache mode, admits the keys to the eviction
// policy and enforces the byte bound synchronously. Runs before any
// concurrent access exists.
func (s *Store) seedCache() {
	var total int64
	buf := make([]byte, 0, 64)
	s.tree.ScanNInto(nil, core.ScanAll, buf, func(k []byte, v *value.Value) bool {
		total += int64(v.Size())
		if v.ExpiresAt() != 0 {
			s.ttlUsed.Store(true)
		}
		s.cache.Seed(k, v.Size())
		return true
	})
	if total != 0 {
		s.cache.Account(-1, total)
	}
	if s.cache.EvictionEnabled() {
		s.cacheMaintain()
	}
}

// recover reads the latest valid checkpoint and the logs beyond it, folds
// each key's records over its checkpointed value off the tree, and loads the
// final values into the empty tree once, in key order, one key range per
// core. It then restores the clock and opens a fresh log generation (never
// appending to a file that may end in a torn record).
func (s *Store) recover() error {
	phase := s.wall.Now()
	ckptTS, parts, err := checkpoint.Latest(s.fsys, s.cfg.Dir)
	if err != nil && err != checkpoint.ErrNone {
		return fmt.Errorf("kvstore: loading checkpoint: %w", err)
	}
	s.obsRecoveryPhase(obs.RecPhaseCheckpoint, &phase)
	// Every checkpoint was written under CheckpointN's synchronize-and-drain
	// protocol, so every record at or below its timestamp is fully
	// reflected in it. Such records are excluded from replay AND from the
	// cutoff computation: replaying one could resurrect a key whose remove
	// only the checkpoint remembers (absence cannot version-guard), and
	// letting a crash-resurrected old-generation log constrain the cutoff
	// with pre-checkpoint timestamps would discard the durable
	// post-checkpoint tail of busier logs.
	res, err := wal.RecoverDirAboveFS(s.fsys, s.cfg.Dir, ckptTS)
	if err != nil {
		return fmt.Errorf("kvstore: scanning logs: %w", err)
	}
	s.obsRecoveryPhase(obs.RecPhaseLogParse, &phase)
	// The parts are ascending disjoint key ranges, so together they are the
	// checkpoint in key order. Sorted by key, then TS, each key's records
	// follow in increasing version order (§5); one key's records have
	// distinct timestamps, so an unstable sort is exact.
	es, recs := slices.Concat(parts...), res.Records
	slices.SortFunc(recs, byKeyTS)
	ranges := runtime.GOMAXPROCS(0)
	maxVersion := make([]uint64, ranges)
	brokenChains := make([]int64, ranges)
	var wg sync.WaitGroup
	e0, r0 := 0, 0
	for i := range ranges {
		// Cut at a key of the longer input, so the ranges are about equal.
		e1, r1 := len(es), len(recs)
		if n := max(e1, r1); i+1 < ranges && n > 0 {
			var k []byte
			if e1 == n {
				k = es[(i+1)*e1/ranges].Key
			} else {
				k = recs[(i+1)*r1/ranges].Key
			}
			e1 = sort.Search(e1, func(j int) bool { return bytes.Compare(es[j].Key, k) >= 0 })
			r1 = sort.Search(r1, func(j int) bool { return bytes.Compare(recs[j].Key, k) >= 0 })
		}
		wg.Add(1)
		go func(es []checkpoint.Entry, recs []wal.Record) {
			defer wg.Done()
			maxVersion[i], brokenChains[i] = s.restoreRange(es, recs)
		}(es[e0:e1], recs[r0:r1])
		e0, r0 = e1, r1
	}
	wg.Wait()
	s.obsRecoveryPhase(obs.RecPhaseReplay, &phase)
	for _, n := range brokenChains {
		s.recovered.BrokenChains += n
	}
	s.recovered.MissingLogs = int64(res.MissingLogs)
	if res.MissingLogs > 0 {
		s.obs.Recorder().Record(0, obs.EvLogMissing, uint64(res.MissingLogs), 0)
	}
	// Seed the clocks past everything the previous incarnation could have
	// issued: replayed log timestamps, checkpointed value versions, and the
	// checkpoint's own start timestamp. The last matters when removes (whose
	// timestamps live in no value) lifted the clock before a checkpoint
	// reclaimed the logs that recorded them — without it, a later checkpoint
	// could carry a lower start timestamp than a surviving older one and
	// checkpoint.Latest would restore the stale state.
	s.clock.seed(max(res.MaxTS, slices.Max(maxVersion), ckptTS))
	logs, err := wal.OpenSetFS(s.fsys, s.cfg.Dir, s.cfg.Workers, res.MaxGen+1, s.cfg.SyncWrites, s.cfg.FlushInterval, s.wall)
	if err != nil {
		return err
	}
	logs.Observe(s.obs.Hist(obs.HWALFlush), s.obs.Recorder())
	s.logs = logs
	return nil
}

// byKeyTS orders log records by key, then by timestamp.
func byKeyTS(a, b wal.Record) int {
	if c := bytes.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	return cmp.Compare(a.TS, b.TS)
}

// restoreRange restores one key range: es are its checkpoint entries and
// recs its records, both in key order and the records of a key in increasing
// TS order. Each key's records are folded over its checkpointed value
// (replay), and the values that survive are put in 256-key PutBatchInto
// chunks, so runs of adjacent keys share one border-node lock acquisition.
// Ranges are disjoint and the tree starts empty, so every put inserts. It
// returns the largest checkpointed version and how many keys' chains broke.
func (s *Store) restoreRange(es []checkpoint.Entry, recs []wal.Record) (maxVersion uint64, brokenChains int64) {
	const chunk = 256
	var sc core.BatchScratch
	keys := make([][]byte, 0, chunk)
	vals := make([]*value.Value, 0, chunk)
	load := func() {
		s.tree.PutBatchInto(keys, &sc, func(i int, _ *value.Value) *value.Value { return vals[i] })
		keys, vals = keys[:0], vals[:0]
	}
	for len(es) > 0 || len(recs) > 0 {
		var key []byte
		var v *value.Value
		if len(es) > 0 && (len(recs) == 0 || bytes.Compare(es[0].Key, recs[0].Key) <= 0) {
			key, v = es[0].Key, es[0].Value
			maxVersion = max(maxVersion, v.Version())
			es = es[1:]
		} else {
			key = recs[0].Key
		}
		n := 0
		for n < len(recs) && bytes.Equal(recs[n].Key, key) {
			n++
		}
		v, broken := replay(v, recs[:n])
		if broken {
			brokenChains++
			s.obs.Recorder().Record(recs[0].Worker, obs.EvChainBreak, cache.Hash(key), 0)
		}
		recs = recs[n:]
		if v != nil {
			keys, vals = append(keys, key), append(vals, v)
			if len(keys) == chunk {
				load()
			}
		}
	}
	if len(keys) > 0 {
		load()
	}
	return maxVersion, brokenChains
}

// replay folds one key's surviving log records, in increasing TS order,
// over v, the key's checkpointed value (nil if the checkpoint lacks the
// key), and returns the key's final value (nil if it ends absent) and
// whether its chain broke.
//
// The fold is chain-validated: a linked (non-anchor) record merges only
// when its prev link matches the state replay rebuilt. A mismatch means the
// record's base was never rebuilt — a predecessor's log vanished wholesale,
// so the vanished log constrained neither the cutoff nor anything else —
// and merging anyway would fabricate a column mix no execution produced.
// The key stays at its last anchored prefix instead (refusal IS the
// rollback: records replay in version order, so whatever the key holds when
// a link breaks is the longest prefix the surviving logs can vouch for),
// and the rollback is counted in BrokenChains. Once a link breaks, later
// linked records cannot spuriously match the stale state (versions strictly
// increase past it); only an anchor — an insert, or the column-complete
// prev == 0 OpPut an older MTLOG2 log may hold — resumes the key. Values
// are rebuilt with the record's originating worker as their worker tag, so
// cross-log handoff detection stays exact after a restart.
func replay(v *value.Value, recs []wal.Record) (_ *value.Value, broken bool) {
	for _, r := range recs {
		if v != nil && v.Version() >= r.TS {
			continue // already reflected (e.g. via the checkpoint)
		}
		switch r.Op {
		case wal.OpPut, wal.OpPutTTL, wal.OpInsert, wal.OpInsertTTL:
			base := v
			if r.Op.IsInsert() || r.Prev == 0 {
				// Chain anchor: an insert, whose columns make the value
				// on their own, or an older log's OpPut with prev == 0.
				// Replace rather than merge, so stale records of a
				// cleanly-dropped (evicted/swept) predecessor cannot fold
				// their columns into the recovered value.
				base = nil
			} else if v.Version() != r.Prev {
				broken = true
				continue // broken chain: hold the anchored prefix
			}
			// RecoverDirAboveFS refused any log whose id the tag cannot
			// hold, so the conversion is exact.
			v = value.BuildTTLAt(base, r.Puts, r.TS, uint32(r.Worker), r.Expiry)
		case wal.OpRemove:
			v = nil
		}
	}
	return v, broken
}

// maintainTick is the maintenance loop's period on the store's wall clock:
// each tick moves the heap's growth onto superpages, collapses emptied trie
// layers, runs the cache-mode passes and marks the logs (§5.1's loose clock
// synchronization).
const maintainTick = 50 * time.Millisecond

// maintainLoop runs the maintenance tick on t, made before the loop starts so
// the tick's phase is fixed when Open returns. The tick is its only trigger:
// between ticks a cache-mode overshoot or a filling admission ring is the
// writer's to answer (cache.HelpEnforce), so on a clock.Fake no pass runs
// that the clock's Advance did not cause.
func (s *Store) maintainLoop(t clock.Ticker) {
	defer s.wg.Done()
	defer t.Stop()
	lastMark := uint64(0)
	for {
		select {
		case <-t.C():
			// Once the heap has grown by superpage.Step, collapse it onto
			// 2 MiB pages, so a node hop stops paying a 4 KiB page walk
			// (§6.2's +Superpage, substitution #1).
			superpage.Tick()
			s.cacheMaintain()
			// Collapse the trie layers removes have emptied (§4.6.5). No
			// grace period is needed: the collapse marks the layer's root
			// deleted under its lock and its parent's, a reader that
			// reaches the root sees the mark and retries from the top, and
			// the garbage collector keeps the unlinked node readable.
			s.tree.Maintain()
			// Loose clock synchronization (§5.1): lift lagging worker
			// clocks to the global maximum, and write that maximum as a
			// timestamp mark to each log. The marks are what keep the
			// recovery cutoff fresh — an idle worker's log otherwise
			// retains a stale maximum durable timestamp and t = min over
			// logs would discard every busier log's tail.
			//
			// Soundness: shards are lifted to m first, so any operation
			// drawing a version after this point exceeds m; and a log is
			// only marked while its worker's draw-to-append mutex is free
			// (TryLock), so the mark never claims durability for a drawn-
			// but-unappended record. Unchanged m means no new writes:
			// skip, so idle stores do not grow their logs.
			if m := s.clock.synchronize(); s.logs != nil && m > lastMark {
				all := true
				for w := 0; w < s.logs.Workers(); w++ {
					if mu := &s.workerMu[w]; mu.TryLock() {
						b := s.logs.Writer(w).Begin()
						b.Mark(m)
						b.End()
						mu.Unlock()
					} else {
						all = false // busy worker: retry next tick
					}
				}
				if all {
					lastMark = m
				}
			}
		case <-s.stop:
			return
		}
	}
}

// cacheMaintain runs one cache-mode maintenance pass: the incremental TTL
// sweep, then the policy drain-and-evict. Both remove keys by a clean drop.
func (s *Store) cacheMaintain() {
	if !s.ttlUsed.Load() && !s.cache.EvictionEnabled() {
		return
	}
	start := s.wall.Now()
	defer func() { s.obs.Hist(obs.HEvict).Record(0, s.wall.Now().Sub(start)) }()
	if s.ttlUsed.Load() {
		// Adaptive catch-up: one batch per tick suffices when expirations
		// trickle, but a TTL-heavy store (especially with eviction disabled,
		// where nothing else reclaims memory) can lapse keys faster than
		// sweepBatchKeys per tick. Keep sweeping while batches come back
		// dense with expired keys, up to a bounded number of rounds, so the
		// sweep rate scales with the backlog instead of pinning at one
		// batch regardless of it.
		now := start.UnixNano()
		for round := 0; round < maxSweepRounds; round++ {
			if s.sweepExpired(now) < sweepBatchKeys/8 {
				break
			}
		}
	}
	s.cache.Maintain(s.evictKey)
}

// evictKey is the policy's remove callback: a clean drop, which writes no
// WAL record. It drops whatever value is current — a put
// racing the eviction decision may see its value dropped immediately, which
// cache semantics permit (indistinguishable from evicting the key a moment
// after the put; the torture model's dropped-key rule covers exactly this).
// Write-behind turns the drop into a spill: the evicted value (immutable, so
// retaining the pointer is free) queues for the backend unless it is already
// dead by TTL.
func (s *Store) evictKey(key []byte) bool {
	old := s.drop(key, nil)
	if old == nil {
		return false
	}
	s.obs.Recorder().Record(0, obs.EvEvict, cache.Hash(key), uint64(old.Size()))
	if s.wb != nil && !expired(s.wall, old) {
		s.wb.enqueue(key, old)
	}
	return true
}

// sweepBatchKeys bounds how many keys one sweep batch inspects for expiry;
// maxSweepRounds bounds how many batches one maintenance tick chains when
// the batches keep coming back dense with expired keys (see cacheMaintain).
// Together they cap a tick's sweep work while letting the reclaim rate
// grow ~32x under backlog.
const (
	sweepBatchKeys = 512
	maxSweepRounds = 32
)

// sweepExpired scans up to sweepBatchKeys keys from the sweep cursor,
// physically removing values whose expiry has lapsed, and returns how many
// it dropped. Removals are clean drops (no WAL record): the expiry travels
// inside every logged value, so a replayed copy simply re-expires. The drop
// re-checks expiry under the border lock — a concurrent fresh put between
// scan and removal wins.
//
// With a backend and MaxStale configured, the sweep horizon moves back by
// MaxStale: an expired-but-recent value is the stale-if-error reserve the
// loader serves during a backend outage, so the sweeper must not reclaim it
// until the stale window has also lapsed. (Reads still treat it as expired;
// only physical removal is deferred. Cache-pressure eviction is not — under
// a byte budget, memory wins over the stale reserve.)
func (s *Store) sweepExpired(now int64) int {
	if s.loader != nil && s.cfg.MaxStale > 0 {
		now -= int64(s.cfg.MaxStale)
	}
	s.sweepKeys = s.sweepKeys[:0]
	s.sweepArena = s.sweepArena[:0]
	seen := 0
	var last []byte // copied per key: the scan's key buffer is reused
	if s.sweepBuf == nil {
		s.sweepBuf = make([]byte, 0, 64)
	}
	s.sweepBuf = s.tree.ScanNInto(s.sweepCursor, sweepBatchKeys, s.sweepBuf, func(k []byte, v *value.Value) bool {
		seen++
		if v.Expired(now) {
			off := len(s.sweepArena)
			s.sweepArena = append(s.sweepArena, k...)
			s.sweepKeys = append(s.sweepKeys, s.sweepArena[off:len(s.sweepArena):len(s.sweepArena)])
		}
		last = append(last[:0], k...)
		return seen < sweepBatchKeys
	})
	if seen < sweepBatchKeys {
		s.sweepCursor = s.sweepCursor[:0] // reached the end: wrap to the start
	} else {
		// Resume just past the last visited key (append a 0 byte: the
		// smallest strictly-greater key).
		s.sweepCursor = append(append(s.sweepCursor[:0], last...), 0)
	}
	var dropped int64
	lapsed := func(v *value.Value) bool { return v.Expired(now) }
	for _, k := range s.sweepKeys {
		if s.drop(k, lapsed) != nil {
			s.cache.NoteRemove(0, k)
			dropped++
		}
	}
	if dropped != 0 {
		s.cache.NoteExpirations(dropped)
		s.obs.Recorder().Record(0, obs.EvExpire, uint64(dropped), 0)
	}
	return int(dropped)
}

// CacheStats snapshots the cache-mode counters: accounted live bytes,
// evictions, expirations, and ghost hits. BytesLive is meaningful (and
// cheap) in every mode; the rest stay zero unless MaxBytes/TTLs are in use.
func (s *Store) CacheStats() cache.Stats { return s.cache.Stats() }

// MaxBytes reports the configured cache-mode byte budget (0 = unbounded).
func (s *Store) MaxBytes() int64 { return s.cache.MaxBytes() }

// Tree exposes the underlying Masstree (benchmarks and tests).
func (s *Store) Tree() *core.Tree { return s.tree }

// Epoch exposes an epoch manager no store call uses. It is kept only for
// the benchmark harness, which times a pin on it.
func (s *Store) Epoch() *epoch.Manager { return &s.mgr }

// Len returns the number of keys.
func (s *Store) Len() int { return s.tree.Len() }

// expired reports whether v carries a lapsed expiry on wall — the lazy half
// of TTL enforcement: every read path treats an expired value as absent the
// moment its deadline passes, without waiting for the background sweep to
// remove it physically. The clock is only read for values that carry an
// expiry at all, out of line, so TTL-free workloads pay one header load and
// a branch.
func expired(wall clock.Clock, v *value.Value) bool {
	return v.HasExpiry() && pastExpiry(wall, v)
}

// pastExpiry is expired's clock read, for a value that carries an expiry.
func pastExpiry(wall clock.Clock, v *value.Value) bool {
	return v.ExpiresAt() <= uint64(wall.Now().UnixNano())
}

// deadline resolves a time to live into the expiry a value written now
// carries, in unix nanoseconds on the store's wall clock: 0 (no expiry) for
// 0, and a deadline already past for a negative ttl. Every TTL handed to
// the store resolves here, so deadlines follow the store's clock.
func (s *Store) deadline(ttl time.Duration) uint64 {
	if ttl == 0 {
		return 0
	}
	return uint64(max(s.wall.Now().Add(ttl).UnixNano(), 1))
}

// AppendCols appends the requested columns of v (nil = all) to dst and
// returns the extended slice. The appended slices alias v's immutable
// packed allocation and must not be mutated.
func AppendCols(dst [][]byte, v *value.Value, cols []int) [][]byte {
	if cols == nil {
		for i, n := 0, v.NumCols(); i < n; i++ {
			dst = append(dst, v.Col(i))
		}
		return dst
	}
	for _, c := range cols {
		dst = append(dst, v.Col(c))
	}
	return dst
}

// nextVersion draws key's next version from worker's clock. It runs under
// the owning border node's lock: updates lift the clock past the replaced
// value's version, inserts past every remove (see shardedClock).
func (s *Store) nextVersion(worker int, old *value.Value) uint64 {
	if old == nil {
		return s.clock.tick(worker, s.clock.removeFloor.Load())
	}
	return s.clock.tick(worker, old.Version())
}

// retire orders old's departure on the clock under the owning border node's
// lock — a remove's, a clean drop's, and step's implicit remove of a lapsed
// value. It draws the departure's timestamp past old's version and lifts the
// remove floor to it before the lock is released: the tree forgets an
// unlinked key's versions, so a racing re-insert must already see the floor,
// or it could draw below the departure and replay in the wrong order (§5).
func (s *Store) retire(worker int, old *value.Value) uint64 {
	ver := s.clock.tick(worker, old.Version())
	s.clock.noteRemove(ver)
	return ver
}

// drop is the clean drop of eviction and the TTL sweep: it removes key's
// value if pred accepts it (nil accepts any), retires it on worker 0's clock,
// the maintenance context's, accounts its bytes and returns it (nil if none).
// It logs nothing: an evicted key is not a removed one, and a lapsed value
// re-expires on replay.
func (s *Store) drop(key []byte, pred func(*value.Value) bool) *value.Value {
	old, _ := s.tree.RemoveIf(key, func(v *value.Value) bool {
		if pred != nil && !pred(v) {
			return false
		}
		s.retire(0, v)
		return true
	})
	if old != nil {
		s.cache.Account(0, -int64(old.Size()))
	}
	return old
}

// basePolicy is what a write requires of the value it would replace: beside
// columns, expiry and expected version, all the write entry points differ in.
type basePolicy uint8

const (
	overAny  basePolicy = iota // write over whatever is there (Put, PutTTL, CasPut, batches)
	onlyLive                   // decline unless a live value is there (Touch: the dead stay dead)
	onlyDead                   // decline if a live value is there (loads: a racing put wins)
)

// writeOp describes one call's writes to the kernel, shared by its keys,
// whose column lists come beside it (none republishes the base's columns);
// an entry point is a descriptor.
type writeOp struct {
	remove bool   // take the key out (Remove): the other fields are unused
	expiry uint64 // the new values' expiry in unix nanoseconds; 0 = never
	ttl    bool   // the records carry the expiry (OpPutTTL/OpInsertTTL), zero included
	cas    bool   // apply only if the base's version equals expect
	expect uint64 // with cas: the version required; 0 = key absent
	base   basePolicy
}

// writeResult is what one step decided, drew and built. It travels by
// value: the border-lock func literal stores it into the batch scratch.
type writeResult struct {
	nv     *value.Value // the value published; core.Removed for a remove; nil when the step declined
	base   *value.Value // what the write saw as current; nil if absent or lazily expired
	ver    uint64       // nv's version, or a remove's timestamp
	prev   uint64       // base's version — a delta record's chain link
	delta  int64        // change in accounted bytes: nv's size less the physical old value's
	insert bool         // the record's columns make nv on their own: logged as an insert, no link
}

// step is the write kernel's first stage and the only place a version is
// drawn. It runs under the owning border node's lock — inside the func
// literal the driver hands Tree.BatchInto — on the key's physical value old. It
// decides once what the base is: a lapsed value reads as absent, so it is
// absent for the version compare, the policy, the build and the record
// alike, and the clock is read at most once, only for a value carrying an
// expiry. A remove retires the physical value, lapsed or not, and answers
// core.Removed (absent: declined). Any other write applies op's expected
// version and base policy (a nil nv: declined, nothing changed), draws the
// version, reads the chain link and builds the packed value.
func (s *Store) step(worker int, op writeOp, puts []value.ColPut, old *value.Value) (r writeResult) {
	r.base = old
	if expired(s.wall, old) {
		r.base = nil
	}
	base := r.base
	if op.remove {
		if old != nil {
			r.nv, r.ver, r.delta = core.Removed, s.retire(worker, old), -int64(old.Size())
		}
		return r
	}
	if op.cas && base.Version() != op.expect || // Version is nil-safe: 0 for absent keys
		op.base == onlyLive && base == nil ||
		op.base == onlyDead && base != nil {
		return r
	}
	if base != old {
		// Lazy expiry's write half: a lapsed value reads as absent, so the
		// write builds on a nil base (no dead column resurrects) and logs an
		// insert, which replay applies as a replacement. The dead value still
		// departs in clock order, so the draw below lands above it.
		s.retire(worker, old)
	}
	r.prev = base.Version()
	r.ver = s.nextVersion(worker, base)
	r.nv = value.BuildTTLAt(base, puts, r.ver, uint32(worker), op.expiry)
	r.delta = int64(r.nv.Size() - old.Size())
	// An insert's columns make nv on their own: no base, or puts listing
	// every column of nv in order. A cross-log handoff (see Put) and a write
	// with no columns (Touch) log every column of nv as one: a delta over a
	// vanished log's value replays onto nothing, and Touch's empty one as an
	// empty value — found but blank, worse than absent.
	r.insert = base == nil || base.Worker() != uint32(worker) || op.base == onlyLive ||
		putsAreValue(puts, r.nv.NumCols())
	return r
}

// putsAreValue reports whether puts are exactly columns 0, 1, …, n-1 in
// order: the whole of an n-column value, whatever the base held.
func putsAreValue(puts []value.ColPut, n int) bool {
	for i, p := range puts {
		if p.Col != i {
			return false
		}
	}
	return len(puts) == n
}

// logWrite is the kernel's second stage and the only place a write's record
// form is chosen, for one key or a batch alike and under one log-buffer lock:
// a remove, stamped with the departure's timestamp; an insert (replays as a
// replacement; over a base, every column of the published value, read from
// its packed allocation); or a delta linked to the version it replaced. Its
// caller holds the lockWorker window that covered the steps, so the records
// reach the log before any later draw on this worker.
func (s *Store) logWrite(worker int, keys [][]byte, puts [][]value.ColPut, res []writeResult, ttl bool, expiry uint64) {
	b := s.logs.Writer(worker).Begin()
	for i := range res {
		switch r := &res[i]; {
		case r.nv == nil: // not a write (a get of a mixed batch): no record
		case r.nv == core.Removed:
			b.Remove(r.ver, keys[i])
		case r.insert && r.base == nil:
			b.Insert(r.ver, keys[i], puts[i], nil, ttl, expiry)
		case r.insert:
			b.Insert(r.ver, keys[i], nil, r.nv, ttl, expiry)
		default:
			b.Put(r.ver, r.prev, keys[i], puts[i], ttl, expiry)
		}
	}
	b.End()
}

// finishWrite is the kernel's last stage, after the append, over the keys one
// call wrote and their step results: arm the expiry sweep, tell the
// read-through tier the keys exist (negative-cache invalidation) and the
// eviction policy their sizes — or that they left, and queue the removes'
// write-behind tombstones, lest a GetOrLoad resurrect them — account the
// bytes in one add, help enforce.
func (s *Store) finishWrite(worker int, keys [][]byte, res []writeResult, expiry uint64) {
	if expiry != 0 {
		s.ttlUsed.Store(true)
	}
	var delta int64
	for i := range res {
		switch nv := res[i].nv; {
		case nv == nil:
			continue // not a write (a get of a mixed batch)
		case nv == core.Removed:
			s.cache.NoteRemove(worker, keys[i])
			if s.wb != nil {
				s.wb.enqueue(keys[i], nil)
			}
		default:
			if s.loader != nil {
				s.loader.noteWrite(keys[i])
			}
			s.cache.NotePut(worker, keys[i], nv.Size())
		}
		delta += res[i].delta
	}
	s.cache.Account(worker, delta)
	s.cache.HelpEnforce(s.evictKey)
}

// checkCols panics on a put to a column outside 0..value.MaxCol. The log
// record, the checkpoint entry and the wire response count a value's columns
// in a u16, which a put past MaxCol would overflow (see value.MaxCol); the
// wire refuses such a request, and a library caller is stopped here, where
// the put enters the store — before any lock is taken, any version drawn or
// the tree touched.
func checkCols(puts []value.ColPut) {
	for _, p := range puts {
		if p.Col < 0 || p.Col > value.MaxCol {
			panic(fmt.Sprintf("kvstore: put to column %d, outside 0..%d", p.Col, value.MaxCol))
		}
	}
}

// lockWorker serializes worker's draw-to-append window; see workerMu.
func (s *Store) lockWorker(worker int) *paddedMutex {
	mu := &s.workerMu[worker%len(s.workerMu)]
	mu.Lock()
	return mu
}

// paddedMutex keeps per-worker mutexes off each other's cache lines.
type paddedMutex struct {
	sync.Mutex
	_ [56]byte
}

// maxRangeScanVisits bounds how many entries one range query may visit,
// results and lazily-expired skips combined. Without it a small-n range
// whose start lands in a large freshly-lapsed region would walk the whole
// dead span inside one request (the sweep reclaims it only incrementally) —
// unbounded CPU for a cheap-looking query. Hitting the cap needs tens of
// thousands of consecutive expired entries; the documented cost is that
// such a query may return short before the sweep catches up.
const maxRangeScanVisits = 1 << 16

// RangeScratch holds reusable arenas for GetRangeInto: the pair slice, a
// column-slice arena, a key-byte arena, and the tree scan's key assembly
// buffer. One scratch per connection makes steady-state range queries
// allocation-free (arena growth aside).
type RangeScratch struct {
	pairs []Pair
	cols  [][]byte
	keys  []byte
	kbuf  []byte
	runs  [][]Pair    // GetRangeBatchInto's result: one window of pairs per range
	wall  clock.Clock // the scanned store's, for lazy expiry

	// The range in progress, read by add.
	want    []int // requested columns
	left    int   // pairs still wanted
	visited int

	// visit is add bound to this scratch, built once rather than per range;
	// bound is the scratch it was built for, so a copy rebinds.
	visit func(k []byte, v *value.Value) bool
	bound *RangeScratch
}

// Reset forgets accumulated pairs (typically once per request batch). The
// backing arrays are retained for reuse.
func (sc *RangeScratch) Reset() {
	sc.pairs = sc.pairs[:0]
	sc.cols = sc.cols[:0]
	sc.keys = sc.keys[:0]
}

// Shrink releases arenas grown past roughly max bytes so one huge range
// query does not pin scratch for a connection's lifetime.
func (sc *RangeScratch) Shrink(max int) {
	if cap(sc.pairs)*48 > max { // ~sizeof(Pair)
		sc.pairs = nil
	}
	if cap(sc.cols)*24 > max {
		sc.cols = nil
	}
	if cap(sc.keys) > max {
		sc.keys = nil
	}
	if cap(sc.kbuf) > max {
		sc.kbuf = nil
	}
	if cap(sc.runs)*24 > max {
		sc.runs = nil
	}
}

// rangeInto is the range kernel behind GetRangeInto and GetRangeBatchInto.
// It appends into sc's reusable arenas instead of allocating per request:
// keys are copied into a byte arena, columns into the column arena, pairs
// into the pair slice. The returned window aliases sc and stays valid until
// sc.Reset (appends never rewrite established backing memory, so earlier
// windows survive arena growth).
//
//masstree:noalloc
func (s *Store) rangeInto(start []byte, n int, cols []int, sc *RangeScratch) []Pair {
	if n <= 0 {
		return nil
	}
	if sc.bound != sc {
		sc.bound = sc
		sc.visit = sc.add //lint:allow noalloc scratch warm-up: one bound method per scratch, amortized over its lifetime
	}
	base := len(sc.pairs)
	sc.want, sc.left, sc.visited, sc.wall = cols, n, 0, s.wall
	sc.kbuf = s.tree.ScanNInto(start, n, sc.kbuf, sc.visit)
	sc.want = nil
	return sc.pairs[base:len(sc.pairs):len(sc.pairs)]
}

// add appends one scanned entry to the range in progress and reports whether
// the scan goes on.
//
//masstree:noalloc
func (sc *RangeScratch) add(k []byte, v *value.Value) bool {
	sc.visited++
	if expired(sc.wall, v) {
		return sc.visited < maxRangeScanVisits // lazily dead: skip, not counted toward n
	}
	ks := len(sc.keys)
	sc.keys = append(sc.keys, k...)
	cs := len(sc.cols)
	sc.cols = AppendCols(sc.cols, v, sc.want)
	sc.pairs = append(sc.pairs, Pair{
		Key:  sc.keys[ks:len(sc.keys):len(sc.keys)],
		Cols: sc.cols[cs:len(sc.cols):len(sc.cols)],
	})
	sc.left--
	return sc.left > 0 && sc.visited < maxRangeScanVisits
}

// CheckpointN writes a checkpoint of all keys and values, then reclaims log
// space and older checkpoints (§5). The key space is partitioned into parts
// disjoint ranges at evenly spaced key ranks, each range is scanned and
// written concurrently to its own part file (§5's multi-threaded
// checkpoint), and the manifest commits them atomically; recovery loads the
// parts concurrently. The scans are fuzzy — they run in parallel with
// request processing over the tree's immutable values — and log replay
// repairs whatever they miss. parts <= 0 uses GOMAXPROCS; 1 writes a single
// part. Returns the manifest path.
func (s *Store) CheckpointN(parts int) (path string, n int, err error) {
	if s.cfg.Dir == "" {
		return "", 0, fmt.Errorf("kvstore: checkpointing requires a persistence directory")
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	ckptStart := s.wall.Now()
	if parts <= 0 {
		parts = runtime.GOMAXPROCS(0)
	}
	if parts > checkpoint.MaxParts {
		// Clamp before partitioning: the bounds and the part files must
		// agree on the count, or keys past the last written part's end
		// bound would silently vanish from the checkpoint.
		parts = checkpoint.MaxParts
	}

	gen, err := s.logs.Rotate()
	if err != nil {
		return "", 0, err
	}
	// Synchronize (not just read) the worker clocks, then drain every
	// worker's draw-to-append window by bouncing through its mutex. After
	// the barrier, (a) any write with a version <= startTS has fully
	// applied and appended — its tree effect is visible to the scans below
	// and its log record sits in a position the checkpoint supersedes —
	// and (b) any write the scans can miss (applied after a scan read its
	// node) must draw from a lifted clock, giving it a version > startTS
	// in a retained log generation. Recovery exploits the dichotomy:
	// replay skips records with ts <= startTS outright, because replaying
	// them could resurrect state (a stale put whose superseding remove is
	// only recorded by the checkpoint as absence has nothing to
	// version-guard against), while everything above startTS replays
	// normally.
	startTS := s.clock.synchronize()
	s.obs.Recorder().Record(0, obs.EvCkptBegin, startTS, uint64(parts))
	for w := range s.workerMu {
		mu := &s.workerMu[w]
		mu.Lock()
		//lint:ignore SA2001 empty critical section is the barrier
		mu.Unlock()
	}

	bounds := s.partitionBounds(parts)
	parts = len(bounds) + 1
	// Expired values are dead weight: skip them so checkpoints shrink to the
	// live set and recovery never resurrects them (their pre-checkpoint log
	// records are skipped wholesale by the ts <= startTS rule). The deadline
	// is sampled once so every part applies the same cut.
	ckptNow := s.wall.Now().UnixNano()
	n, err = checkpoint.WriteParts(s.fsys, s.cfg.Dir, startTS, parts, func(k int, emit func(checkpoint.Entry) error) error {
		var start, end []byte
		if k > 0 {
			start = bounds[k-1]
		}
		if k < len(bounds) {
			end = bounds[k]
		}
		var emitErr error
		buf := make([]byte, 0, 64)
		s.tree.ScanNInto(start, core.ScanAll, buf, func(key []byte, v *value.Value) bool {
			if end != nil && bytes.Compare(key, end) >= 0 {
				return false // next part's range
			}
			if v.Expired(ckptNow) {
				return true // dead by TTL: checkpoints carry only live data
			}
			if err := emit(checkpoint.Entry{Key: key, Value: v}); err != nil {
				emitErr = err
				return false
			}
			return true
		})
		return emitErr
	})
	if err != nil {
		return "", 0, err
	}
	// WriteParts' directory sync was the commit point: record the commit and
	// the whole write's latency before moving on to reclamation.
	s.obs.Hist(obs.HCheckpoint).Record(0, s.wall.Now().Sub(ckptStart))
	s.obs.Recorder().Record(0, obs.EvCkptCommit, startTS, uint64(n))
	path = filepath.Join(s.cfg.Dir, checkpoint.ManifestName(startTS))
	// The WriteParts directory sync above is the commit point; only now is
	// it safe to reclaim the state the new checkpoint supersedes.
	if err := checkpoint.DropFS(s.fsys, s.cfg.Dir, startTS); err != nil {
		return path, n, err
	}
	if err := s.logs.DropBefore(gen); err != nil {
		return path, n, err
	}
	// Make the reclamation removes durable too. Recovery tolerates a
	// resurrected old log (its pre-checkpoint records neither replay nor
	// constrain the cutoff, see recover), but leaving the removes volatile
	// for the whole inter-checkpoint interval costs disk space across
	// crashes for no benefit.
	if err := s.fsys.SyncDir(s.cfg.Dir); err != nil {
		return path, n, err
	}
	return path, n, nil
}

// partitionBounds samples parts-1 keys at evenly spaced ranks, splitting
// the key space into contiguous ranges of roughly equal population. The
// sampling scan is fuzzy (concurrent writes shift ranks harmlessly): all
// that matters is that the bounds are strictly increasing, which a single
// ordered scan guarantees, so the ranges are disjoint and cover everything.
func (s *Store) partitionBounds(parts int) [][]byte {
	n := s.tree.Len()
	if parts <= 1 || n < 2*parts {
		return nil
	}
	bounds := make([][]byte, 0, parts-1)
	stride := n / parts
	i, next := 0, stride
	s.tree.ScanInto(nil, make([]byte, 0, 64), func(k []byte, _ *value.Value) bool {
		if i == next {
			bounds = append(bounds, append([]byte(nil), k...))
			next += stride
			if len(bounds) == parts-1 {
				return false
			}
		}
		i++
		return true
	})
	return bounds
}

// Flush forces buffered log records to the operating system (and to storage
// when SyncWrites is set).
func (s *Store) Flush() error {
	if s.logs == nil {
		return nil
	}
	return s.logs.Flush()
}

// FlushStats reports accumulated log flush failures: the total count across
// all workers' logs (including background group commits, whose errors have
// no caller to return to) and the most recent error. A non-zero count means
// acknowledged puts may not be durable even though the store kept serving.
func (s *Store) FlushStats() (errs int64, last error) {
	if s.logs == nil {
		return 0, nil
	}
	return s.logs.FlushStats()
}

// FlushRetries reports how many log flush attempts were retries made under a
// failure backoff (see the wal writer's capped exponential retry pacing).
func (s *Store) FlushRetries() int64 {
	if s.logs == nil {
		return 0
	}
	return s.logs.FlushRetries()
}

// LogBufferDrops reports how many flushed log buffers were released for
// having outgrown the writers' retain cap. It stays zero while the flushers
// keep up; when it climbs, puts are paying to regrow their log buffers.
func (s *Store) LogBufferDrops() int64 {
	if s.logs == nil {
		return 0
	}
	return s.logs.BufferDrops()
}

// DrainWriteBehind blocks until the write-behind spill queue is empty or
// the timeout lapses, reporting whether it fully drained. A no-op (true)
// without a write-behind queue. Graceful shutdown calls this before Close
// with its own drain budget; Close itself also performs a bounded drain.
func (s *Store) DrainWriteBehind(timeout time.Duration) bool {
	if s.wb == nil {
		return true
	}
	return s.wb.drain(timeout)
}

// closeDrainTimeout bounds Close's final write-behind drain: long enough to
// flush a healthy queue, short enough that a dead backend cannot wedge
// shutdown. Callers who need a larger budget drain explicitly first.
const closeDrainTimeout = 2 * time.Second

// Close stops background work and flushes and closes the logs. A clean
// shutdown writes a timestamp mark to every log so recovery's cutoff does
// not discard the durable tail of busier logs (see wal.OpMark); with
// write-behind armed, pending spills get a bounded final drain first.
func (s *Store) Close() error {
	if s.wb != nil {
		s.wb.close(closeDrainTimeout)
	}
	close(s.stop)
	s.wg.Wait()
	s.tree.Maintain()
	if s.logs != nil {
		s.logs.Mark(s.clock.max())
		return s.logs.Close()
	}
	return nil
}

// Stats exposes tree operation counters.
func (s *Store) Stats() core.StatsSnapshot { return s.tree.Stats() }
