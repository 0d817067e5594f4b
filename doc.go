// Package repro reproduces "Cache Craftiness for Fast Multicore Key-Value
// Storage" (Mao, Kohler, Morris — EuroSys 2012): the Masstree in-memory
// key-value store, its substrates (logging, checkpointing, networking), the
// paper's baseline data structures, and a benchmark harness that regenerates
// every table and figure of the paper's evaluation.
//
// Both halves of the request pipeline are batched and allocation-free in
// steady state. Reads: scratch-aliasing wire decoding, PALM-style batched
// lookups (§4.8), and arena-appended responses. Writes: every write entry
// point — Put, PutTTL, Touch, CasPut, a backend load's install, a batch —
// is a descriptor handed to one kernel in kvstore (writeOp; step, logWrite,
// finishWrite). The step runs under the owning border node's lock: it
// decides once whether the old value still counts as a base (a lapsed one
// is absent for the compare, the build and the record alike), draws the
// version from the worker's loosely synchronized clock instead of a global
// counter (§5.1, kvstore's shardedClock), reads the chain link, and builds
// a single packed value allocation (value.BuildTTLAt). The log stage picks
// each record's form once and encodes it — one key's or a batch's, under
// one buffer lock — directly into the worker's double-buffered log, whose
// flushes never block appenders and whose buffers survive them (§5, wal):
// the value is all a put allocates. The unit of batching is a frame's
// stretch of gets and puts, whatever their mix (Session.PointBatchInto over
// core.BatchInto): every key descends in one wave, sixteen descents in
// flight; a get is answered from the wave; the puts are applied in key order
// from the borders the wave found, each locked and checked rather than
// descended to again, sharing one border-node lock acquisition per run with
// the same step per key, inside one log window. Operations on one key take
// effect in frame order, on different keys in none. A decoded request's put
// list is the store's own type (wire.ColData is value.ColPut), so nothing
// is converted between the wire and the log.
//
// Keys longer than a slice that share it (§4.1's trie layers) do not each
// cost a B+-tree: up to four of them live in a twig (core's twig.go), a
// 48-byte object the border slot points at in place of a layer — their
// remainders past the slice, sorted, and a value cell each. A twig's shape is
// published and never mutated: insert and remove build a new one under the
// owning border's lock and swap the slot's pointer, an overwrite stores into
// the key's cell, and a fifth key turns the twig into a real layer, built
// privately before it is published. Readers learn one more case and no
// protocol. On the paper's decimal keys, where a layer-1 tree holds two keys
// (§6.2), that is 48 bytes where a 320-byte border node stood.
//
// Range queries (§3 getrange) are one descent plus a walk of the border-node
// list (core.ScanNInto). Each node is read as a version-validated snapshot of
// raw slot words — key slice, length class, value, twig or layer pointer,
// suffix pointer — taken only for the slots at or after the resume position; a
// suffix is dereferenced and a key assembled only for an entry that is
// emitted, straight into the caller's buffer, which deeper trie layers
// extend in place. The resume position is a value (slice, length class,
// start-key tail, or "past this slice"), so a warm scan allocates nothing.
// A validated snapshot is also where a scan prefetches: the values it is
// about to hand out and the next border are asked for together, as many as
// the caller said it wants, so their misses overlap. core.Scan,
// kvstore.GetRange/GetRangeInto and the server's OpGetRange are wrappers
// over that one walker, and so are the checkpoint part writers, the expiry
// sweep and the open-time seed scan; a run of OpGetRanges in one message
// (Session.GetRangeBatchInto) first sends its start keys down the tree
// together, as a get batch's keys go, then runs each scan as if alone.
// DESIGN.md states which version validates which read.
//
// The transport is protocol v2 (internal/wire): a hello exchange negotiates
// the version (clients that send no hello speak v1 verbatim), after which
// every frame carries a sequence tag and many batches ride one connection
// at once. The async client (client.Conn, Go/Wait) pipelines tagged batches
// behind one another, and the server turns each v2 connection into a
// reader → executor → writer pipeline over a recycled scratch ring, so
// decoding frame N+1 overlaps executing frame N and writing frame N−1 —
// batching fills each message, pipelining fills the gaps between messages
// (§7: "batched query support is vital on these benchmarks"). The API also
// exposes record versions end to end: gets return the value's version and
// OpCas applies a put only if the version still matches (checked under the
// same border-node lock as the write), giving clients lock-free
// read-modify-write across the network.
//
// Persistence (§5) is parallel end to end. A checkpoint partitions the key
// space into T disjoint ranges at evenly spaced key ranks and writes T part
// files concurrently (ckpt-<ts>-partK.ckpt, each with its own CRC footer);
// a small manifest (ckpt-<ts>.mf) is renamed into place and the directory
// fsynced as the commit point, and only then is older log and checkpoint
// state reclaimed. Recovery runs the same pipeline backwards: parts load
// concurrently with chunked batched tree inserts, log files parse
// one-goroutine-per-file, and replay partitions keys across cores.
// Checkpoint start synchronizes the per-worker clocks and drains the
// draw-to-append windows, so replay can prove every record at or below the
// checkpoint timestamp redundant and skip it (replaying one could resurrect
// a key whose remove only the checkpoint remembers).
//
// Log records are version-chained (the MTLOG2 format; MTLOG1 logs still
// recover, their records replaying unvalidated). Every partial put carries
// prev — the version it replaced, read in the same border-lock critical
// section that drew its own version — and a put over a value stamped
// through a different worker's log is logged column-complete with prev ==
// 0, a chain anchor (inserts and Touch anchor too). Replay applies a
// partial record only when its prev matches the replayed state; a broken
// link rolls the key back to its last anchored prefix instead of merging
// columns from different versions, and the rollback is counted in
// recovery's broken_chains. A logset file names the expected per-worker
// logs (committed by rename before any reclamation), so a log vanishing
// wholesale — which the paper's min-over-logs cutoff cannot see, since a
// missing log imposes no constraint — surfaces as missing_logs. Both
// counters ride the server's Stats op. The walchain analyzer proves
// statically that the draw and the prev read happen only in the kernel's
// step, the chained append only in its log stage, and both inside one
// worker-lock window, and the multi-writer crash torture
// (TestCrashTortureMultiWriter) proves end to end that keys whose columns
// span logs recover to exact applied states at every crash boundary, even
// with a whole log removed.
//
// Cache mode (internal/cache) makes the store the memcached-class server
// the paper benchmarks against (§1, §6): Config.MaxBytes bounds the
// accounted live bytes — per-worker cache-line-padded counters fed by the
// packed value sizes, one atomic add per put or remove. A value's size is
// computed, not stored (value.Value.Size: a 13-byte header, 8 more for an
// expiry, one end per column as narrow as the data allows, the data — 22
// bytes for an 8-byte value), and the live deltas and the walk that seeds
// the total on Open read the same figure. An S3-FIFO-inspired policy (small
// probationary FIFO, main FIFO, ghost list of evicted key hashes) evicts
// cold keys from the maintenance loop, with over-budget writers throttled
// into helping (HelpEnforce) so the bound holds even when writers outrun
// the maintenance goroutine. The hot paths
// feed the policy without locks it could contend on: puts append admission
// events to per-worker double-buffered rings, gets store key hashes into
// per-worker lossy access rings. TTLs ride in the packed value, eight bytes
// behind the header of a value that has one and none otherwise
// (value.BuildTTLAt): reads treat a lapsed value as absent immediately
// (lazy expiry) and an incremental background sweep reclaims it.
// Protocol v2 carries PutTTL and Touch (v1 semantics are untouched), and
// the Stats op reports bytes_live, evictions, expirations, and ghost_hits.
//
// Cache-mode persistence semantics: evictions and expirations are clean
// drops — they write no WAL remove — so a crash may replay a dropped key
// back (its put record is still in the log), which is correct for a cache:
// recovery replays, then re-enforces the byte bound before serving, and a
// replayed TTL value simply re-expires (the expiry is in the logged value,
// wal.OpPutTTL). Checkpoints skip expired entries, so once a checkpoint
// supersedes the logs a dropped key is gone for good. What cache mode never
// does is lose an acked write it did not drop — the eviction-enabled crash
// torture (TestCrashTortureEviction) proves that at every filesystem
// boundary, and the clean-drop path still lifts the remove floor under the
// border lock so a re-inserted key's versions stay above the dropped
// value's and replay order is preserved.
//
// The backend tier (internal/backend) turns cache mode into a CDN-style
// read-through front for a slow source of truth. Backend is a three-call
// seam (Load/Store/Delete); backend.Wrap decorates any implementation with
// per-attempt timeouts, bounded jittered retries, a concurrency limiter,
// and a circuit breaker, and backend.NewFile ships a vfs-backed reference
// implementation (-backend file:<dir> on the server). Session.GetOrLoad is
// the read surface: a resident hit costs nothing (allocation-free, pinned
// by test), a miss funnels into a per-key singleflight so a thundering
// herd of concurrent misses triggers exactly one backend load — 512
// racing misses, 1 load, 511 coalesced (BENCH_backend.json) — and
// authoritative misses are negative-cached so absent hot keys cannot herd
// either. Loaded values install through the ordinary put path, so they are
// logged, versioned, and cache-accounted like any put. Writes flow the
// other way through the bounded write-behind queue: eviction's clean drops
// and Remove's tombstones enqueue, an async drainer pushes them upstream,
// and an in-flight spill stays visible to loads so read-through can never
// resurrect a pre-spill value. When the backend dies the store degrades
// instead of hanging: the breaker fails misses fast, expired-but-resident
// values within Config.MaxStale are served marked stale (stale-if-error;
// the TTL sweep defers physically removing them for exactly this reserve),
// and OpGetOrLoad reports the distinction on the wire (StatusStale).
// Graceful shutdown drains in dependency order — stop accepting, flush the
// WAL, drain the write-behind queue, final checkpoint — and exits nonzero
// if any budget lapses.
//
// Cluster mode (internal/cluster) is the client-side sharding layer: a
// cluster.Cluster consistent-hashes keys across N servers (a deterministic
// virtual-node ring — FNV-1a finalized with splitmix64 — pinned by golden
// tests, because changing the hash is a resharding event) and speaks
// pipelined v2 to each through a small per-node connection pool.
// GetBatch/PutBatch split by owner shard, fan out concurrently, and merge
// replies in request order; a single-owner batch is forwarded verbatim, so
// a Cluster over one node is byte-identical to a plain client.Conn.
// Failure is the design center: per-node health follows the breaker
// pattern (consecutive transport failures trip a node Down, after which
// its shard fails fast with ErrNodeDown — no dial, no timeout, no parked
// goroutine — until a single probe loop's dial+ping heals it, with zero
// client restarts), Config.DialTimeout bounds connect+hello so a
// blackholed address cannot hang construction or recovery, optional
// hedged reads escape orphaned TCP flows by racing a fresh dial to the
// same owner after HedgeAfter, and optional ReadFailover trades strict
// shard ownership for availability by retrying idempotent reads once on
// the ring successor. internal/netfault is the matching TCP-proxy fault
// injector (latency, blackhole, refuse, freeze, truncate, reset, retarget,
// heal); the partition-torture harness drives a live workload over three
// proxied nodes through kill/partition/slow/heal schedules and asserts no
// acked write is lost, no reply comes from the wrong shard, dead-shard ops
// stay inside one timeout budget with bounded goroutines, and healed nodes
// rejoin — see BENCH_cluster.json for the fan-out and hedged-p99 numbers.
// masstree-client -addrs a,b,c routes the CLI through the same ring.
//
// Observability (internal/obs) makes the store explain itself without
// perturbing what it explains. Every timed stage — get/put/batch/scan/
// CAS/getorload server-side, WAL flush, checkpoint write, each recovery
// phase, backend loads, eviction passes, cluster per-node RPC — records
// into a log-bucketed latency histogram (64 power-of-two buckets; bucket b
// covers [2^b, 2^(b+1)) ns) whose record path is one bits.Len64 and two
// atomic adds into a per-worker cache-line-padded shard: ~14ns, zero
// allocations (//masstree:noalloc, enforced by the noalloc analyzer and the
// AllocsPerRun pins, which run with instrumentation armed — BENCH_obs.json
// measures the end-to-end overhead as noise). Snapshots merge shards
// lock-free and extract p50/p90/p99/p999. Alongside the histograms runs the
// flight recorder: fixed-size per-worker rings of binary trace events for
// internal transitions (breaker trips/heals, evictions, WAL flush retries
// and errors, checkpoint steps, recovery chain-rollbacks, node health
// changes), dumpable on demand — the torture harnesses dump it on first
// failure, so a failed crash image ships its own story. The data surfaces
// three ways, all rendered from the same snapshot so they cannot disagree:
// the wire Stats op gains lat_<stage>_count/_sum/_p50/_p90/_p99/_p999 and
// per-bucket lat_<stage>_b<i> keys (all base-10 integers — v1 clients that
// ParseInt every value keep working, pinned by stats_compat_test);
// cluster.StatsAggregate sums the bucket keys across nodes and re-derives
// the quantiles from the merged distribution (never averaging per-node
// quantiles, and labeling partial aggregates via stats_partial); and
// masstree-server's opt-in -admin listener serves /metrics (hand-rolled
// Prometheus text exposition), /varz (JSON with full histograms),
// /flightrecorder, and stdlib /debug/pprof — never on the data-plane port.
// masstree-client stats renders it grouped by subsystem, with -json for
// machines.
//
// Everything under wal and checkpoint reaches the disk through internal/vfs,
// an injectable filesystem seam. vfs.MemFS models crash consistency the way
// a conservative POSIX filesystem behaves (unsynced file data is lost;
// directory operations are volatile — and may survive in any subset — until
// the directory is fsynced), and vfs.Fault numbers every write, fsync,
// rename, create, and dir-sync as a crash boundary. The torture tests in
// internal/kvstore enumerate those boundaries during a put/checkpoint/put
// workload, kill the store at each one, recover from several legal crash
// images, and check the result against a model of acknowledged writes — no
// lost acks, no resurrections, exact per-key versions. New crash scenarios
// are written the same way: build a store on a Fault-wrapped MemFS, arm
// CrashAt(n), Crash(keep) into a disk image, reopen, and assert.
//
// The invariants those paragraphs lean on — locks released on every path,
// tree reads bracketed by epoch pins, hot paths allocation-free, scratch
// aliases never stored past reuse, atomic fields never touched plainly —
// are machine-checked. internal/analysis is a dependency-free
// go/analysis-style suite whose six passes (lockpair, epochguard, noalloc,
// scratchalias, atomicfield, walchain) verify them at build time; `go run
// ./cmd/masstree-lint ./...` must exit clean and CI enforces it. Contracts
// are declared where the code is:
//
//	//masstree:locked n        n is locked on entry and at every return
//	//masstree:unlocks n       n is locked on entry, released on every path
//	//masstree:returns-locked  the non-nil result is locked; nil-check it
//	//masstree:acquires n.h    this statement acquires n.h invisibly
//	//masstree:releases n.h    this statement releases n.h invisibly
//	//masstree:pinned          the caller holds an epoch pin across this call
//	//masstree:noalloc         steady state performs zero heap allocations
//	//masstree:scratch         this type hands out aliases of reusable memory
//
// Deliberate exceptions carry //lint:allow <analyzer> <reason> on the
// offending line or the line above; the reason is mandatory, and a bare
// allow is itself a finding. Each analyzer is backed by golden fixtures
// under its testdata/src (run with the ordinary go test).
//
// See DESIGN.md for the system inventory: the package map, the invariant
// catalog behind the analyzers, the numbered paper-to-Go substitutions,
// and the experiment index. Measured results live in the committed
// BENCH_*.json snapshots at the repository root (BENCH_pipeline.json,
// BENCH_writepath.json, BENCH_pipeline_v2.json, BENCH_recovery.json,
// BENCH_cache.json, BENCH_backend.json, BENCH_cluster.json,
// BENCH_replaychain.json, BENCH_obs.json — read-path, write-path,
// pipelining, restart, cache-mode, herd-coalescing, cluster
// fan-out/hedging, chained-WAL cost/recovery, and instrumentation-overhead
// numbers respectively). The implementation lives under
// internal/; runnable entry points are under cmd/ and examples/
// (examples/pipeline demonstrates the async client and CAS;
// examples/cachefront the bounded cache; examples/readthrough the backend
// tier under faults).
package repro
