// Package kvstore assembles Masstree the system (§3, §5): the core tree,
// multi-column values, per-worker logging with group commit, periodic
// checkpoints, recovery, and epoch-scheduled maintenance.
//
// The store supports the paper's four operations — get(k), put(k, v),
// remove(k), and getrange(k, n) — each with an optional list of column
// numbers. Multi-column puts are atomic: a concurrent get sees all or none
// of a put's column modifications (§4.7).
//
// Version numbers and timestamps: the store draws both from per-worker
// loosely synchronized clocks (§5.1, see shardedClock), assigned under the
// owning border node's lock and lifted past the replaced value's version
// (and past every remove, for fresh inserts). Sequential updates to a value
// therefore obtain distinct increasing versions, log records are totally
// ordered per key (even across remove/re-insert), and recovery can apply
// each key's updates in increasing version order after cutting off at
// t = min over logs of the log's maximum durable timestamp (§5) — all
// without the global clock cache line every writer used to bounce.
//
// Every write — Put, PutTTL, Touch, CasPut, a backend load's install, a
// batch — is one kernel in three stages, and the entry points are
// descriptors of it (writeOp). step, under the owning border node's lock,
// decides the base once, draws the version, reads the chain link and builds
// exactly one packed value (§4.7); logWrite appends the records, one key's or
// a batch's under one buffer lock, encoded directly into the worker's own
// double-buffered log (§5); finishWrite accounts. PointBatchInto runs the
// same step over the puts of a batch — a frame's stretch of gets and puts,
// all descending in one wave (§4.8) — in tree order, from the borders the
// wave found, with one border-node lock acquisition per run of co-located
// keys; PutBatchInto is the batch with no get in it. The put pipeline
// allocates only the value itself, at any volume: the log's buffers survive
// their flushes.
package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/obs"
	"repro/internal/value"
	"repro/internal/vfs"
	"repro/internal/wal"
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
	// MaintainEvery is the epoch-advance and tree-maintenance period.
	// Defaults to 50 ms; 0 uses the default, negative disables.
	MaintainEvery time.Duration
	// CheckpointParts is how many concurrent part writers a checkpoint
	// uses — the key space is partitioned into that many disjoint ranges,
	// written as one part file each (§5: checkpoints are taken by multiple
	// threads over subranges), and recovery loads the parts concurrently.
	// 0 defaults to GOMAXPROCS; 1 writes a single part.
	CheckpointParts int
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
	// NoObs disables the observability subsystem (the per-worker latency
	// histograms and the flight recorder, see internal/obs). Instrumentation
	// is on by default: its record paths are allocation-free and wait-free,
	// and the alloc pins and the obs bench experiment both run with it
	// armed. Turning it off exists for measuring its own overhead.
	NoObs bool
}

// Pair is one key plus requested columns, returned by GetRange.
type Pair struct {
	Key  []byte
	Cols [][]byte
}

// Store is a persistent in-memory key-value store backed by a Masstree.
// All methods are safe for concurrent use.
type Store struct {
	cfg   Config
	fsys  vfs.FS
	tree  *core.Tree
	clock *shardedClock
	// now is the write kernel's wall clock in unix nanoseconds (see step);
	// a field so tests can hold it still.
	now   func() int64
	logs  *wal.Set // nil when persistence is disabled
	mgr   epoch.Manager
	cache *cache.Cache

	// loader/wb are the read-through and write-behind tiers; both nil when
	// no Backend is configured (wb additionally requires WriteBehind > 0).
	loader *loader
	wb     *writeBehind

	// ttlUsed arms the maintenance loop's expiry sweep the first time any
	// value carries an expiry (PutTTL/Touch, or a recovered TTL record), so
	// TTL-free stores never pay for tree sweeps.
	ttlUsed atomic.Bool
	// evictH is the maintenance loop's epoch handle: evictions and expiry
	// sweeps run inside Enter/Exit so deferred structural reclamation waits
	// for them like for any session's operation.
	evictH *epoch.Handle
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
	// internal stage plus the flight recorder. Nil when Config.NoObs — and
	// every record site tolerates that, so "off" costs one nil check.
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
// the flight recorder. Nil when Config.NoObs; obs instruments are nil-safe,
// so callers may chain without checking (s.Obs().Hist(...).Record(...)).
func (s *Store) Obs() *obs.Registry { return s.obs }

// obsRecoveryPhase records one recovery phase: its duration lands in the
// recovery histogram and as a flight-recorder event, and the phase clock
// advances so the next phase measures only itself.
func (s *Store) obsRecoveryPhase(phase uint64, start *time.Time) {
	d := time.Since(*start)
	*start = time.Now()
	s.obs.Hist(obs.HRecovery).Record(0, d)
	s.obs.Recorder().Record(0, obs.EvRecoveryPhase, phase, uint64(d))
}

// Open creates a store, recovering from the newest valid checkpoint plus
// logs when cfg.Dir holds a previous incarnation's state.
func Open(cfg Config) (*Store, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	// step tells a cross-log handoff from a delta by comparing a value's
	// worker tag with the writing worker's id, so every id must fit the tag.
	if cfg.Workers-1 > value.MaxWorker {
		return nil, fmt.Errorf("kvstore: %d workers exceed the value worker tag's range (at most %d)", cfg.Workers, value.MaxWorker+1)
	}
	if cfg.MaintainEvery == 0 {
		cfg.MaintainEvery = 50 * time.Millisecond
	}
	if cfg.NegativeTTL == 0 {
		cfg.NegativeTTL = time.Second
	}
	s := &Store{
		cfg:      cfg,
		fsys:     cfg.FS,
		tree:     core.New(),
		clock:    newShardedClock(cfg.Workers),
		now:      func() int64 { return time.Now().UnixNano() },
		cache:    cache.New(cfg.Workers, cfg.MaxBytes),
		workerMu: make([]paddedMutex, cfg.Workers),
		stop:     make(chan struct{}),
	}
	if s.fsys == nil {
		s.fsys = vfs.OS{}
	}
	if !cfg.NoObs {
		// Built before recovery so the recovery phases are themselves timed
		// and replay's chain rollbacks land in the flight recorder.
		s.obs = obs.NewRegistry(cfg.Workers)
	}
	if cfg.Dir != "" {
		if err := s.fsys.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, err
		}
		if err := s.recover(); err != nil {
			return nil, err
		}
	}
	s.evictH = s.mgr.Register()
	if cfg.Backend != nil {
		s.loader = newLoader(s, cfg.Backend)
		if cfg.WriteBehind > 0 {
			s.wb = newWriteBehind(cfg.Backend, cfg.WriteBehind)
		}
	}
	// Cache mode re-enforces the bound over recovered state: replay may have
	// brought back evicted keys (their drops were never logged) and the
	// accounted total starts from whatever survived, so seed the policy with
	// every recovered key and evict straight back down to the budget before
	// serving.
	s.seedCache()
	if cfg.MaintainEvery > 0 {
		s.wg.Add(1)
		go s.maintainLoop()
	}
	return s, nil
}

// seedCache charges the accounting shards for every key already in the tree
// (recovered state) and, in cache mode, admits the keys to the eviction
// policy and enforces the byte bound synchronously. Runs before any
// concurrent access exists.
func (s *Store) seedCache() {
	var total int64
	buf := make([]byte, 0, 64)
	//lint:allow epochguard seedCache runs during Open, before any concurrent access or reclamation exists
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

// recover loads the latest valid checkpoint — all parts concurrently, each
// batch-inserted so runs of adjacent keys share one border-node lock
// acquisition — then replays the logs beyond it in parallel, restores the
// clock, and opens a fresh log generation (never appending to a file that
// may end in a torn record).
func (s *Store) recover() error {
	phase := time.Now()
	var maxVersion atomic.Uint64
	ckptTS, fromManifest, err := s.loadCheckpoint(&maxVersion)
	if err != nil && err != checkpoint.ErrNone {
		return fmt.Errorf("kvstore: loading checkpoint: %w", err)
	}
	s.obsRecoveryPhase(obs.RecPhaseCheckpoint, &phase)
	// Only manifest-format checkpoints were written under CheckpointN's
	// synchronize-and-drain protocol, the precondition for treating every
	// record at or below the checkpoint timestamp as fully reflected in
	// it. For those, records <= ckptTS are excluded from replay AND from
	// the cutoff computation: replaying one could resurrect a key whose
	// remove only the checkpoint remembers (absence cannot version-guard),
	// and letting a crash-resurrected old-generation log constrain the
	// cutoff with pre-checkpoint timestamps would discard the durable
	// post-checkpoint tail of busier logs. A legacy single-file checkpoint
	// (an earlier incarnation's data) gives no such guarantee — a lagging
	// clock shard could have issued ts <= ckptTS for a write the fuzzy
	// scan missed — so for those everything replays under the version
	// guard, as before.
	replayCut := uint64(0)
	if fromManifest {
		replayCut = ckptTS
	}
	res, err := wal.RecoverDirAboveFS(s.fsys, s.cfg.Dir, replayCut)
	if err != nil {
		return fmt.Errorf("kvstore: scanning logs: %w", err)
	}
	s.obsRecoveryPhase(obs.RecPhaseLogParse, &phase)
	// Chain-validated replay: each key's records arrive in increasing TS
	// order, and a linked (v2, non-anchor) record merges only when its prev
	// link matches the state replay rebuilt. A mismatch means the record's
	// base was never rebuilt — a predecessor's log vanished wholesale, so
	// the vanished log constrained neither the cutoff nor anything else —
	// and merging anyway would fabricate a column mix no execution
	// produced. The key stays at its last anchored prefix instead (refusal
	// IS the rollback: records replay in version order, so whatever the
	// key holds when a link breaks is the longest prefix the surviving
	// logs can vouch for), and the rollback is counted in BrokenChains.
	// Once a link breaks, later linked records cannot spuriously match the
	// stale state (versions strictly increase past it); only an anchor —
	// an insert, or a column-complete prev==0 record — resumes the key.
	// Values are rebuilt with the record's originating worker as their
	// worker tag, so cross-log handoff detection stays exact after a
	// restart.
	var brokenChains atomic.Int64
	res.ReplayByKey(max(4, runtime.GOMAXPROCS(0)), func(recs []wal.Record) {
		broken := false
		for _, r := range recs {
			switch r.Op {
			case wal.OpPut, wal.OpPutTTL, wal.OpInsert, wal.OpInsertTTL:
				s.tree.Update(r.Key, func(old *value.Value) *value.Value {
					if old != nil && old.Version() >= r.TS {
						return old // already reflected (e.g. via the checkpoint)
					}
					base := old
					if r.Op.IsInsert() || (!r.Unlinked && r.Prev == 0) {
						// Chain anchor: executed against an absent (or
						// lazily-expired) base, or carrying every column of
						// the value it published (handoff anchors, Touch).
						// Replace rather than merge, so stale records of a
						// cleanly-dropped (evicted/swept) predecessor cannot
						// fold their columns into the recovered value.
						base = nil
					} else if !r.Unlinked && old.Version() != r.Prev {
						broken = true
						return old // broken chain: hold the anchored prefix
					}
					// RecoverDirAboveFS refused any log whose id the tag
					// cannot hold, so the conversion is exact.
					return value.BuildTTLAt(base, r.Puts, r.TS, uint32(r.Worker), r.Expiry)
				})
			case wal.OpRemove:
				if v, ok := s.tree.Get(r.Key); ok && v.Version() < r.TS {
					s.tree.Remove(r.Key)
				}
			}
		}
		if broken {
			brokenChains.Add(1)
			s.obs.Recorder().Record(int(recs[0].Worker), obs.EvChainBreak, obs.KeyHash(recs[0].Key), 0)
		}
	})
	s.obsRecoveryPhase(obs.RecPhaseReplay, &phase)
	s.recovered.BrokenChains = brokenChains.Load()
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
	// LoadLatest would restore the stale state.
	clock := res.MaxTS
	if mv := maxVersion.Load(); mv > clock {
		clock = mv
	}
	if ckptTS > clock {
		clock = ckptTS
	}
	s.clock.seed(clock)
	logs, err := wal.OpenSetFS(s.fsys, s.cfg.Dir, s.cfg.Workers, res.MaxGen+1, s.cfg.SyncWrites, s.cfg.FlushInterval)
	if err != nil {
		return err
	}
	logs.Observe(s.obs.Hist(obs.HWALFlush), s.obs.Recorder())
	s.logs = logs
	return nil
}

// loadCheckpoint finds the newest fully valid checkpoint and loads its
// parts concurrently, one goroutine per part. Parts cover disjoint key
// ranges, so the inserts never contend on a key; the version guard keeps
// the load idempotent against anything else in the tree. fromManifest
// reports whether the loaded checkpoint was the manifest (multi-part)
// format, i.e. written by CheckpointN's synchronize-and-drain protocol.
func (s *Store) loadCheckpoint(maxVersion *atomic.Uint64) (ts uint64, fromManifest bool, err error) {
	infos, err := checkpoint.ListFS(s.fsys, s.cfg.Dir)
	if err != nil {
		return 0, false, err
	}
	for i := len(infos) - 1; i >= 0; i-- {
		ts, parts, err := checkpoint.Read(s.fsys, infos[i])
		if err != nil {
			if errors.Is(err, checkpoint.ErrCorrupt) {
				continue // torn or damaged: fall back to an older checkpoint
			}
			return 0, false, err
		}
		var wg sync.WaitGroup
		for _, es := range parts {
			wg.Add(1)
			go func(es []checkpoint.Entry) {
				defer wg.Done()
				s.insertCheckpointPart(es, maxVersion)
			}(es)
		}
		wg.Wait()
		return ts, infos[i].Parts != 0, nil
	}
	return 0, false, checkpoint.ErrNone
}

// insertCheckpointPart inserts one part's entries in batched chunks:
// entries arrive in key order, so PutBatchInto applies whole runs of
// adjacent keys under a single border-node lock acquisition instead of one
// full descent per key.
func (s *Store) insertCheckpointPart(es []checkpoint.Entry, maxVersion *atomic.Uint64) {
	const chunk = 256
	var sc core.BatchScratch
	keys := make([][]byte, 0, chunk)
	localMax := uint64(0)
	for base := 0; base < len(es); base += chunk {
		end := min(base+chunk, len(es))
		keys = keys[:0]
		for _, e := range es[base:end] {
			keys = append(keys, e.Key)
		}
		s.tree.PutBatchInto(keys, &sc, func(i int, old *value.Value) *value.Value {
			e := es[base+i]
			if v := e.Value.Version(); v > localMax {
				localMax = v
			}
			if old != nil && old.Version() >= e.Value.Version() {
				return nil // already reflected; decline
			}
			return e.Value
		})
	}
	for {
		cur := maxVersion.Load()
		if localMax <= cur || maxVersion.CompareAndSwap(cur, localMax) {
			return
		}
	}
}

func (s *Store) maintainLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.MaintainEvery)
	defer t.Stop()
	lastMark := uint64(0)
	for {
		select {
		case <-s.cache.Wake():
			// A worker's accounting probe saw the byte budget exceeded:
			// evict now instead of waiting out the tick, bounding overshoot
			// to roughly one eviction batch. (Wake() is nil — and this case
			// inert — when eviction is disabled.)
			s.cacheMaintain()
		case <-t.C:
			s.cacheMaintain()
			// Deferred structural clean-up runs through the epoch manager,
			// exactly as the paper schedules reclamation tasks (§4.6.5):
			// the collapse executes only after concurrent readers have
			// moved past the epoch in which the layer emptied.
			if s.tree.PendingMaintenance() > 0 {
				s.mgr.Retire(func() { s.tree.Maintain() })
			}
			s.mgr.Advance()
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
						s.logs.Writer(w).AppendMark(m)
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
// sweep, then the policy drain-and-evict. Both remove keys through the
// border-lock remove path under the maintenance epoch handle, so deferred
// structural reclamation treats them like any session's operation.
func (s *Store) cacheMaintain() {
	if !s.ttlUsed.Load() && !s.cache.EvictionEnabled() {
		return
	}
	if h := s.obs.Hist(obs.HEvict); h != nil {
		start := time.Now()
		defer func() { h.Record(0, time.Since(start)) }()
	}
	s.evictH.Enter()
	defer s.evictH.Exit()
	if s.ttlUsed.Load() {
		// Adaptive catch-up: one batch per tick suffices when expirations
		// trickle, but a TTL-heavy store (especially with eviction disabled,
		// where nothing else reclaims memory) can lapse keys faster than
		// sweepBatchKeys per tick. Keep sweeping while batches come back
		// dense with expired keys, up to a bounded number of rounds, so the
		// sweep rate scales with the backlog instead of pinning at one
		// batch regardless of it.
		now := time.Now().UnixNano()
		for round := 0; round < maxSweepRounds; round++ {
			if s.sweepExpired(now) < sweepBatchKeys/8 {
				break
			}
		}
	}
	s.cache.Maintain(s.evictKey)
}

// evictKey is the policy's remove callback: a clean drop through the same
// border-lock remove path as Remove, minus the WAL record. The predicate
// accepts whatever value is current — a put racing the eviction decision
// may see its value dropped immediately, which cache semantics permit
// (indistinguishable from evicting the key a moment after the put; the
// torture model's dropped-key rule covers exactly this). The remove floor
// is still lifted under the lock — a later re-insert of the key must draw a
// version above the dropped value's, or log replay would apply the new put
// before (and thus lose it to) the old one's higher version guard.
func (s *Store) evictKey(key []byte) bool {
	var delta int64
	var spill *value.Value
	_, ok := s.tree.RemoveIf(key, func(old *value.Value) bool {
		s.clock.noteRemove(old.Version())
		delta = -int64(old.Size())
		// Write-behind turns the clean drop into a spill: the evicted value
		// (immutable, so retaining the pointer is free) queues for the
		// backend unless it is already dead by TTL.
		if s.wb != nil && !expired(old) {
			spill = old
		}
		return true
	})
	if ok {
		s.cache.Account(-1, delta)
		s.obs.Recorder().Record(0, obs.EvEvict, obs.KeyHash(key), uint64(-delta))
		if spill != nil {
			s.wb.enqueue(key, spill)
		}
	}
	return ok
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
// inside every logged value, so a replayed copy simply re-expires. RemoveIf
// re-checks expiry under the border lock — a concurrent fresh put between
// scan and removal wins.
//
// With a backend and MaxStale configured, the sweep horizon moves back by
// MaxStale: an expired-but-recent value is the stale-if-error reserve the
// loader serves during a backend outage, so the sweeper must not reclaim it
// until the stale window has also lapsed. (Reads still treat it as expired;
// only physical removal is deferred. Cache-pressure eviction is not — under
// a byte budget, memory wins over the stale reserve.) Runs under the
// maintenance epoch handle (cacheMaintain pins evictH).
//
//masstree:pinned
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
	for _, k := range s.sweepKeys {
		var delta int64
		_, ok := s.tree.RemoveIf(k, func(old *value.Value) bool {
			if !old.Expired(now) {
				return false // re-put since the scan: keep it
			}
			s.clock.noteRemove(old.Version())
			delta = -int64(old.Size())
			return true
		})
		if ok {
			s.cache.Account(-1, delta)
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

// Epoch exposes the store's epoch manager (sessions register handles).
func (s *Store) Epoch() *epoch.Manager { return &s.mgr }

// Len returns the number of keys.
func (s *Store) Len() int { return s.tree.Len() }

// expired reports whether v carries a lapsed expiry — the lazy half of TTL
// enforcement: every read path treats an expired value as absent the moment
// its deadline passes, without waiting for the background sweep to remove
// it physically. time.Now is only consulted for values that carry an expiry
// at all, so TTL-free workloads pay one header load and a branch.
func expired(v *value.Value) bool {
	e := v.ExpiresAt()
	return e != 0 && e <= uint64(time.Now().UnixNano())
}

// Get returns the requested columns of key's value, or (nil, false) if the
// key is absent. cols == nil returns all columns. The caller must hold an
// epoch pin (Session.Get does).
//
//masstree:pinned
func (s *Store) Get(key []byte, cols []int) ([][]byte, bool) {
	v, ok := s.GetValue(key)
	if !ok {
		return nil, false
	}
	return pickCols(v, cols), true
}

// GetInto is Get appending the requested columns to dst instead of
// allocating a fresh slice; it returns the extended slice. With a reused
// dst the read path performs no allocations (the column contents alias the
// immutable value, so no byte copying happens either). The caller must hold
// an epoch pin.
//
//masstree:pinned
//masstree:noalloc
func (s *Store) GetInto(key []byte, cols []int, dst [][]byte) ([][]byte, bool) {
	v, ok := s.GetValue(key)
	if !ok {
		return dst, false
	}
	return AppendCols(dst, v, cols), true
}

// GetValue returns the whole value object — the one point lookup Get and
// GetInto wrap: a lazily-expired value is absent. The caller must hold an
// epoch pin.
//
//masstree:pinned
//masstree:noalloc
func (s *Store) GetValue(key []byte) (*value.Value, bool) {
	v, ok := s.tree.Get(key)
	if !ok || expired(v) {
		return nil, false
	}
	return v, true
}

// BatchScratch holds reusable state for PointBatchInto and its all-get and
// all-put faces: the result slices and the core tree's batch scratch. One
// scratch per worker or connection makes steady-state batched reads and
// writes allocation-free (beyond the packed values a put must build).
type BatchScratch struct {
	vals  []*value.Value
	found []bool
	res   []writeResult // the puts' step results, by key; zero for a get
	out   []uint64      // the puts' versions, by key
	core  core.BatchScratch
}

// GetBatch retrieves many keys at once, overlapping their descents' cache
// misses (§4.8's PALM-style batching; see core.Tree.GetBatchInto). Results
// are in input order; cols == nil returns all columns. The caller must hold
// an epoch pin.
//
//masstree:pinned
func (s *Store) GetBatch(keys [][]byte, cols []int) (out [][][]byte, found []bool) {
	var sc BatchScratch
	vals, ok := s.GetBatchInto(keys, &sc)
	return extractBatchCols(vals, ok, cols), ok
}

// extractBatchCols materializes per-key column sets from batched values;
// shared by the allocating GetBatch wrappers.
func extractBatchCols(vals []*value.Value, ok []bool, cols []int) [][][]byte {
	out := make([][][]byte, len(vals))
	for i, v := range vals {
		if ok[i] {
			out[i] = pickCols(v, cols)
		}
	}
	return out
}

// GetBatchInto is the allocation-free batched lookup: values and found
// flags are written into sc's reusable slices and remain valid until the
// next call with the same scratch. Column extraction is left to the caller
// (each request in a batch may want different columns); use AppendCols.
// It is PointBatchInto with no put among the keys. The caller must hold an
// epoch pin.
//
//masstree:pinned
//masstree:noalloc
func (s *Store) GetBatchInto(keys [][]byte, sc *BatchScratch) ([]*value.Value, []bool) {
	vals, found, _ := s.PointBatchInto(0, keys, nil, nil, sc)
	return vals, found
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

func pickCols(v *value.Value, cols []int) [][]byte {
	if cols == nil {
		return v.Cols()
	}
	return AppendCols(make([][]byte, 0, len(cols)), v, cols)
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

// expireBase implements the write-side half of lazy expiry, under the
// owning border node's lock, for an old value the step found lapsed. An
// expired old value reads as absent, so a write over it must behave like a
// write over an absent key: the new value builds on a nil base (a
// partial-column put must not resurrect the dead value's other columns) and
// is logged as an insert record, which replay applies as a replacement
// (wal.OpInsert) so recovery rebuilds the same columns the live store
// served. The physical old value still orders the clock — an implicit
// remove's timestamp is drawn past its version and the remove floor lifted,
// exactly like Remove — so the step's subsequent version draw (against the
// nil base, flooring on removeFloor) lands above everything the dead value
// logged.
func (s *Store) expireBase(worker int, old *value.Value) {
	s.clock.noteRemove(s.clock.tick(worker, old.Version()))
}

// basePolicy is what a write requires of the value it would replace: beside
// columns, expiry and expected version, all the write entry points differ in.
type basePolicy uint8

const (
	overAny  basePolicy = iota // write over whatever is there (Put, PutTTL, CasPut, batches)
	onlyLive                   // decline unless a live value is there (Touch: the dead stay dead)
	onlyDead                   // decline if a live value is there (loads: a racing put wins)
)

// writeOp describes one key's write to the kernel (step, logWrite,
// finishWrite); a write entry point is a descriptor and a reading of the result.
type writeOp struct {
	puts   []value.ColPut // column modifications; none republishes the base's columns
	expiry uint64         // the new value's expiry in unix nanoseconds; 0 = never
	ttl    bool           // the record carries the expiry (OpPutTTL/OpInsertTTL), zero included
	cas    bool           // apply only if the base's version equals expect
	expect uint64         // with cas: the version required; 0 = key absent
	base   basePolicy
}

// writeResult is what one step decided, drew and built. It travels by
// value: the border-lock func literal stores it into one stack slot.
type writeResult struct {
	nv     *value.Value // the value published; nil when the step declined
	base   *value.Value // what the write saw as current; nil if absent or lazily expired
	ver    uint64       // nv's version
	prev   uint64       // base's version — the record's chain link; 0 for an insert
	delta  int64        // change in accounted bytes: nv's size less the physical old value's
	insert bool         // built on no base: logged as an insert record
	anchor bool         // logged column-complete with prev == 0
}

// step is the write kernel's first stage and the only place a version is
// drawn. It runs under the owning border node's lock — inside the func
// literal a tree write method calls — on the key's physical value old. It
// decides once what the base is: a lapsed value reads as absent, so it is
// absent for the version compare, the policy, the build and the record
// alike, and the clock is read at most once, only for a value carrying an
// expiry. Then it applies op's expected version and base policy (a nil nv:
// declined, nothing changed), draws the version, reads the chain link and
// builds the packed value.
func (s *Store) step(worker int, op writeOp, old *value.Value) (r writeResult) {
	r.base = old
	if old.ExpiresAt() != 0 && old.Expired(s.now()) {
		r.base = nil
	}
	base := r.base
	if op.cas && base.Version() != op.expect || // Version is nil-safe: 0 for absent keys
		op.base == onlyLive && base == nil ||
		op.base == onlyDead && base != nil {
		return r
	}
	if base != old {
		s.expireBase(worker, old)
	}
	r.insert = base == nil
	r.prev = base.Version()
	// A cross-log handoff (see Put) is logged column-complete with prev == 0,
	// and so is a write with no columns of its own (Touch): its empty delta
	// would replay as an empty value — found but blank, worse than absent —
	// were the log holding the key's original put to vanish.
	r.anchor = base != nil && (base.Worker() != uint32(worker) || op.base == onlyLive)
	r.ver = s.nextVersion(worker, base)
	r.nv = value.BuildTTLAt(base, op.puts, r.ver, uint32(worker), op.expiry)
	r.delta = int64(r.nv.Size() - old.Size())
	return r
}

// logWrite is the kernel's second stage and the only place a put's record
// form is chosen, for one key or a batch alike and under one log-buffer lock:
// an insert (built on no base; replays as a replacement), an anchor (every
// column of the published value, read from its packed allocation, prev == 0),
// or a delta linked to the version it replaced. Its caller holds the
// lockWorker window that covered the steps, so the records reach the log
// before any later draw on this worker.
func (s *Store) logWrite(worker int, keys [][]byte, puts [][]value.ColPut, res []writeResult, ttl bool, expiry uint64) {
	b := s.logs.Writer(worker).Begin()
	for i := range res {
		switch r := &res[i]; {
		case r.nv == nil: // not a write (a get of a mixed batch): no record
		case r.insert:
			b.Insert(r.ver, keys[i], puts[i], ttl, expiry)
		case r.anchor:
			b.Anchor(r.ver, keys[i], r.nv, ttl, expiry)
		default:
			b.Put(r.ver, r.prev, keys[i], puts[i], ttl, expiry)
		}
	}
	b.End()
}

// finishWrite is the kernel's last stage, after the append, over the keys one
// call wrote and their step results: arm the expiry sweep, tell the
// read-through tier the keys exist (negative-cache invalidation) and the
// eviction policy their sizes, account the bytes in one add, help enforce.
func (s *Store) finishWrite(worker int, keys [][]byte, res []writeResult, expiry uint64) {
	if expiry != 0 {
		s.ttlUsed.Store(true)
	}
	var delta int64
	for i := range res {
		if res[i].nv == nil {
			continue // not a write (a get of a mixed batch)
		}
		delta += res[i].delta
		if s.loader != nil {
			s.loader.noteWrite(keys[i])
		}
		s.cache.NotePut(worker, keys[i], res[i].nv.Size())
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

// write drives one key through the kernel: the step under the border lock
// and then, unless it declined, the record and the accounting — all inside
// worker's draw-to-append window when logging is on.
func (s *Store) write(worker int, key []byte, op writeOp) (r writeResult) {
	checkCols(op.puts)
	if s.logs != nil {
		mu := s.lockWorker(worker)
		defer mu.Unlock()
	}
	s.tree.Apply(key, func(old *value.Value) *value.Value {
		r = s.step(worker, op, old)
		return r.nv
	})
	if r.nv != nil {
		keys, res := [][]byte{key}, []writeResult{r}
		if s.logs != nil {
			s.logWrite(worker, keys, [][]value.ColPut{op.puts}, res, op.ttl, op.expiry)
		}
		s.finishWrite(worker, keys, res, op.expiry)
	}
	return r
}

// Put applies the column modifications to key atomically, logging through
// the given worker's log, and returns the new value's version. Neither puts
// nor the Data slices are retained: both are copied into the packed value
// and the log buffer.
//
// Logging chains the record to the replaced value's version (wal format
// v2), with one exception: when the replaced value's version was stamped
// through a different worker's log (base.Worker() != worker — a cross-log
// handoff), the record is logged column-complete with prev == 0, anchoring
// the key's chain in this log. No replay chain ever spans log files without
// an anchor, so a vanished log is always detectable at recovery.
func (s *Store) Put(worker int, key []byte, puts []value.ColPut) uint64 {
	return s.write(worker, key, writeOp{puts: puts}).ver
}

// PutTTL is Put with an expiry deadline (unix nanoseconds; 0 behaves like
// Put): after expiresAt the key reads as absent (lazy expiry on every get
// and scan) and the maintenance loop's background sweep eventually removes
// it physically — a clean drop that writes no WAL record, since the expiry
// rides in the logged value itself (wal.OpPutTTL) and replay re-expires it.
// A write over a lazily-expired value builds on an absent base (see
// expireBase): dead columns are never resurrected.
func (s *Store) PutTTL(worker int, key []byte, puts []value.ColPut, expiresAt uint64) uint64 {
	return s.write(worker, key, writeOp{puts: puts, expiry: expiresAt, ttl: true}).ver
}

// Touch resets key's expiry (unix nanoseconds; 0 = never expire again)
// without changing its columns, publishing a fresh value under a new
// version. Returns the new version and ok false if the key is absent (or
// already expired — touching the dead does not revive them).
func (s *Store) Touch(worker int, key []byte, expiresAt uint64) (ver uint64, ok bool) {
	r := s.write(worker, key, writeOp{expiry: expiresAt, ttl: true, base: onlyLive})
	return r.ver, r.nv != nil
}

// CasPut is a versioned conditional Put (Deuteronomy-style latch-free
// read-modify-write exposed through the API): the column modifications
// apply only if key's current version equals expect, with expect == 0
// meaning "key absent" (so expect 0 is an atomic create-if-absent). The
// comparison runs under the owning border node's lock — the same lock the
// write publishes under, shared with the batched put path — so no window
// exists between check and write. On success it behaves exactly like Put
// (logged as an ordinary put through worker's log) and returns the new
// version with ok true; on mismatch nothing changes and it returns the
// current version (0 if absent) with ok false, letting the caller re-read
// and rebase. A lazily-expired value reads as absent everywhere, so CAS
// sees it as absent too: expect == 0 succeeds over it instead of
// livelocking on a version no read can observe. Neither puts nor their Data
// slices are retained.
func (s *Store) CasPut(worker int, key []byte, expect uint64, puts []value.ColPut) (ver uint64, ok bool) {
	r := s.write(worker, key, writeOp{puts: puts, cas: true, expect: expect})
	if r.nv == nil {
		return r.base.Version(), false
	}
	return r.ver, true
}

// installLoaded publishes a backend-loaded value for key: built on an
// absent base (a load is by definition the key's whole upstream state),
// versioned from the worker's clock, logged as an insert so replay
// reconstructs it as a replacement, and cache-accounted like any put. A
// racing real put wins — if a live value is already resident the install
// declines and returns the winner, so a load can never clobber a write that
// raced past it. Runs under the caller's epoch (see loader.install).
func (s *Store) installLoaded(worker int, key []byte, cols [][]byte, expiresAt uint64) *value.Value {
	puts := make([]value.ColPut, len(cols))
	for i := range cols {
		puts[i] = value.ColPut{Col: i, Data: cols[i]}
	}
	r := s.write(worker, key, writeOp{puts: puts, expiry: expiresAt, ttl: true, base: onlyDead})
	if r.nv == nil {
		return r.base
	}
	return r.nv
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

// PutSimple stores data as column 0 of key.
func (s *Store) PutSimple(worker int, key, data []byte) uint64 {
	return s.Put(worker, key, []value.ColPut{{Col: 0, Data: data}})
}

// PointBatchInto serves a stretch of point operations — gets and puts, a
// frame's worth — as one batch (§4.8's batching, for reads and writes at
// once). put[i] says that keys[i] is a put of the column modifications
// puts[i]; the other keys are gets. A nil put means the keys are all of one
// kind: gets if puts is nil too (GetBatchInto), puts otherwise
// (PutBatchInto).
//
// Every key descends in one wave over the whole batch (core.Tree.BatchInto):
// a get is answered from it, a lazily-expired value as absent; the puts are
// applied in tree order, each run of them owned by one border node under one
// acquisition of its lock and starting at the border the wave found, all
// inside one draw-to-append window, their records encoded under one
// log-buffer lock and accounted together.
//
// Operations on different keys take effect in no particular order — they
// share one invoke-to-return interval, and the puts are reordered already.
// Operations on one key take effect in input order: its puts are applied in
// that order, a get ahead of them all reads what the wave saw, and a get
// behind one reads the value that put published.
//
// vals and found report the gets, vers the puts' versions; all three are
// indexed as keys is, live in sc and are valid until the next batched call
// with the same scratch. No inputs are retained. The caller must hold an
// epoch pin.
//
//masstree:pinned
func (s *Store) PointBatchInto(worker int, keys [][]byte, put []bool, puts [][]value.ColPut, sc *BatchScratch) (vals []*value.Value, found []bool, vers []uint64) {
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
		if found[i] && expired(vals[i]) {
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

// PutBatchInto applies one put per key as one batch: PointBatchInto with
// every key a put. puts[i] lists key i's column modifications; the returned
// versions (one per key, input order) live in sc and are valid until the
// next batched call with the same scratch. Duplicate keys apply in input
// order. The caller must hold an epoch pin: the puts' descents are a wave's.
//
//masstree:pinned
func (s *Store) PutBatchInto(worker int, keys [][]byte, puts [][]value.ColPut, sc *BatchScratch) []uint64 {
	_, _, vers := s.PointBatchInto(worker, keys, nil, puts, sc)
	return vers
}

// PutBatch is PutBatchInto over a fresh scratch, so the returned versions
// alias memory nothing else holds. The caller must hold an epoch pin.
//
//masstree:pinned
func (s *Store) PutBatch(worker int, keys [][]byte, puts [][]value.ColPut) []uint64 {
	var sc BatchScratch
	return s.PutBatchInto(worker, keys, puts, &sc)
}

// Remove deletes key, logging through the given worker's log.
func (s *Store) Remove(worker int, key []byte) bool {
	if s.logs != nil {
		mu := s.lockWorker(worker)
		defer mu.Unlock()
	}
	var ver uint64
	var delta int64
	wasExpired := false
	_, ok := s.tree.RemoveWith(key, func(old *value.Value) {
		ver = s.clock.tick(worker, old.Version())
		// Lift the remove floor while the border lock is still held: the
		// tree forgets the key's version history once it is unlinked, so a
		// re-insert racing with this remove must already see the floor when
		// it acquires the lock — lifting it after RemoveWith returns would
		// let that insert draw a version below the remove's timestamp and
		// replay in the wrong order.
		s.clock.noteRemove(ver)
		delta = -int64(old.Size())
		wasExpired = expired(old)
	})
	if ok {
		if s.logs != nil {
			s.logs.Writer(worker).AppendRemove(ver, key)
		}
		s.cache.Account(worker, delta)
		s.cache.NoteRemove(worker, key)
		// Read-through stores propagate the delete upstream (a tombstone in
		// the write-behind queue); without it the next GetOrLoad would
		// resurrect the removed key from the backend.
		if s.wb != nil {
			s.wb.enqueue(key, nil)
		}
	}
	// A lazily-expired value reads as absent on every path, so removing it
	// must report "did not exist" too (memcached's delete-of-expired is a
	// miss). The physical removal and its log record still happen above —
	// the remove is correct cleanup either way.
	return ok && !wasExpired
}

// maxRangeScanVisits bounds how many entries one range query may visit,
// results and lazily-expired skips combined. Without it a small-n range
// whose start lands in a large freshly-lapsed region would walk the whole
// dead span inside one request (the sweep reclaims it only incrementally) —
// unbounded CPU for a cheap-looking query. Hitting the cap needs tens of
// thousands of consecutive expired entries; the documented cost is that
// such a query may return short before the sweep catches up.
const maxRangeScanVisits = 1 << 16

// GetRange returns up to n pairs starting at the first key >= start,
// retrieving the requested columns (nil = all). Like the paper's getrange it
// is not atomic with respect to concurrent inserts and updates (§3).
// Lazily-expired values are skipped without counting toward n; a scan
// crossing an extremely large expired region (see maxRangeScanVisits) may
// return fewer than n pairs before the background sweep reclaims it.
// The caller must hold an epoch pin.
//
//masstree:pinned
func (s *Store) GetRange(start []byte, n int, cols []int) []Pair {
	var sc RangeScratch // fresh arenas: the result aliases memory nothing else holds
	return s.GetRangeInto(start, n, cols, &sc)
}

// RangeScratch holds reusable arenas for GetRangeInto: the pair slice, a
// column-slice arena, a key-byte arena, and the tree scan's key assembly
// buffer. One scratch per connection makes steady-state range queries
// allocation-free (arena growth aside).
type RangeScratch struct {
	pairs []Pair
	cols  [][]byte
	keys  []byte
	kbuf  []byte
	runs  [][]Pair // GetRangeBatchInto's result: one window of pairs per range

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

// GetRangeInto is GetRange appending into sc's reusable arenas instead of
// allocating per request: keys are copied into a byte arena, columns into
// the column arena, pairs into the pair slice. The returned window aliases
// sc and stays valid until sc.Reset (appends never rewrite established
// backing memory, so earlier windows survive arena growth). The caller must
// hold an epoch pin.
//
//masstree:pinned
//masstree:noalloc
func (s *Store) GetRangeInto(start []byte, n int, cols []int, sc *RangeScratch) []Pair {
	if n <= 0 {
		return nil
	}
	if sc.bound != sc {
		sc.bound = sc
		sc.visit = sc.add //lint:allow noalloc scratch warm-up: one bound method per scratch, amortized over its lifetime
	}
	base := len(sc.pairs)
	sc.want, sc.left, sc.visited = cols, n, 0
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
	if expired(v) {
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

// Checkpoint writes a checkpoint of all keys and values, then reclaims log
// space and older checkpoints (§5). It runs in parallel with request
// processing, with cfg.CheckpointParts concurrent part writers.
func (s *Store) Checkpoint() (path string, n int, err error) {
	return s.CheckpointN(s.cfg.CheckpointParts)
}

// CheckpointN is Checkpoint with an explicit part count: the key space is
// partitioned into parts disjoint ranges at evenly spaced key ranks, each
// range is scanned and written concurrently to its own part file (§5's
// multi-threaded checkpoint), and the manifest commits them atomically.
// The scans are fuzzy — they run in parallel with request processing over
// the tree's immutable values — and log replay repairs whatever they miss.
// parts <= 0 uses GOMAXPROCS. Returns the manifest path.
func (s *Store) CheckpointN(parts int) (path string, n int, err error) {
	if s.cfg.Dir == "" {
		return "", 0, fmt.Errorf("kvstore: checkpointing requires a persistence directory")
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	ckptStart := time.Now()
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
	ckptNow := time.Now().UnixNano()
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
	s.obs.Hist(obs.HCheckpoint).Record(0, time.Since(ckptStart))
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
	//lint:allow epochguard checkpoint scans run unpinned by design: a minutes-long pin would stall reclamation, and GC keeps detached nodes readable
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
	s.mgr.Unregister(s.evictH)
	s.tree.Maintain()
	if s.logs != nil {
		s.logs.Mark(s.clock.max())
		return s.logs.Close()
	}
	return nil
}

// Stats exposes tree operation counters.
func (s *Store) Stats() core.StatsSnapshot { return s.tree.Stats() }
