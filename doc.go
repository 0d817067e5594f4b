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
// 32-byte object for two keys, 48 for three or four, that the border slot
// points at in place of a layer — their
// remainders past the slice, sorted, and a value cell each. A twig's shape is
// published and never mutated: insert and remove build a new one under the
// owning border's lock and swap the slot's pointer, an overwrite stores into
// the key's cell, and a fifth key turns the twig into a real layer, built
// privately before it is published. Readers learn one more case and no
// protocol. On the paper's decimal keys, where a layer-1 tree holds two keys
// (§6.2), that is 32 bytes where a 320-byte border node stood.
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
// kvstore's Session.GetRangeInto and the server's OpGetRange are wrappers
// over that one walker, and so are the checkpoint part writers, the expiry
// sweep and the open-time seed scan; a run of OpGetRanges in one message
// (Session.GetRangeBatchInto) first sends its start keys down the tree
// together, as a get batch's keys go, then runs each scan as if alone.
// DESIGN.md states which version validates which read.
//
// A hop between nodes also pays for its address translation. On Linux the
// store's maintenance tick collapses the heap onto 2 MiB pages each time
// the runtime's mapped memory has grown by 32 MiB (internal/superpage;
// §6.2's +Superpage), chunk by chunk, skipping any chunk under half
// resident, so a load or a restore is on superpages within a tick or two.
//
// The transport is one protocol (internal/wire): a hello exchange opens the
// connection (one that opens any other way is closed before anything
// executes), after which every frame carries a sequence tag and many
// batches ride one connection at once. The client (client.Conn, Go/Wait)
// pipelines tagged batches behind one another, and the server serves each
// connection with one goroutine that reads, executes and answers a frame
// where it was read, flushing its answers only when the next frame is not
// already whole in its read buffer — batching fills each message,
// pipelining fills the gaps between messages
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
// state reclaimed. Recovery runs the same pipeline backwards: parts are read
// and parsed concurrently, log files one goroutine per file; each key's
// records are then folded over its checkpointed value off the tree, and the
// final values are loaded once, in key order, one key range per core, in
// chunked batched tree inserts.
// Checkpoint start synchronizes the per-worker clocks and drains the
// draw-to-append windows, so replay can prove every record at or below the
// checkpoint timestamp redundant and skip it (replaying one could resurrect
// a key whose remove only the checkpoint remembers).
//
// Log records are version-chained (the MTLOG2 format, the only one recovery
// reads: a log in the paper's unchained format refuses to open). Every
// partial put carries prev — the version it replaced, read in the same
// border-lock critical section that drew its own version — and a put over a
// value stamped through a different worker's log is logged column-complete
// with prev == 0, a chain anchor (inserts and Touch anchor too). Replay applies a
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
// span logs recover only to states the reference model (internal/model)
// computed from the writes themselves, at every crash boundary, even with
// a whole log removed.
//
// Cache mode (internal/cache) makes the store the memcached-class server
// the paper benchmarks against (§1, §6): Config.MaxBytes bounds the
// accounted live bytes — per-worker cache-line-padded counters fed by the
// packed value sizes, one atomic add per put or remove. A value's size is
// computed, not stored (value.Value.Size: an 8-byte compact header for
// columns of one short width, else a 13-byte one with one end per column as
// narrow as the data allows; 8 more for an expiry; the data — 16 bytes for
// an 8-byte value), and the live deltas and the walk that seeds the total
// on Open read the same figure. An S3-FIFO-inspired policy (small
// probationary FIFO, main FIFO, ghost list of evicted key hashes) evicts
// cold keys on the maintenance loop's tick, its only trigger. Between ticks
// the writers answer for themselves: an overshoot probe or an admission
// ring past half raises a flag, and the next writer drains the rings and,
// over budget, evicts (HelpEnforce), so the bound holds even when writers
// outrun the tick. The hot paths feed the policy without locks it could
// contend on: puts append admission events to per-worker double-buffered
// rings, gets store key hashes into per-worker lossy access rings. TTLs
// ride in the packed value, eight bytes behind the header of a value that
// has one and none otherwise (value.BuildTTLAt); a session's PutTTL and
// Touch take a duration, which the store resolves into a deadline on its
// own clock. Reads treat a lapsed value as absent immediately (lazy expiry)
// and an incremental background sweep reclaims it. The protocol carries
// PutTTL and Touch in seconds, and the Stats op reports bytes_live,
// evictions, expirations, and ghost_hits.
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
// boundary. A clean drop retires the value as Remove's write does: it
// draws a departure timestamp past the dropped value's version and lifts
// the remove floor under the border lock, so a re-inserted key's versions
// stay above the dropped value's and replay order is preserved.
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
// racing misses, 1 load, 511 coalesced (TestGetOrLoadHerd) — and
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
// Every deadline above — a TTL, a negative-cache entry, the write-behind
// drain, the log's group commit (§5's 200 ms) and retry backoff, the
// maintenance tick that lifts lagging worker clocks (§5.1), the breaker's
// cool-down and the backend's retry sleep — is read from one wall clock
// (internal/clock), which the store hands to its log, loader and
// write-behind queue. Programs get the real clock; tests hand the store a
// fake one and advance it to a deadline instead of sleeping past it. A
// deadline has passed at its own instant, not 1 ns before, everywhere
// (kvstore's TestDeadlineRule). The wall clock orders nothing: versions come
// from the per-worker clocks, which never read it.
//
// Cluster mode (internal/cluster) is the client-side sharding layer: a
// cluster.Cluster consistent-hashes keys across N servers (a deterministic
// virtual-node ring — FNV-1a finalized with splitmix64 — pinned by golden
// tests, because changing the hash is a resharding event) and speaks
// pipelined v2 to each over one connection per node, whose tagged pipelining
// keeps many requests in flight at once. Its single-key calls are
// client.KV's, the one typed face client.Conn embeds too, so both decode a
// response status the same way; a single GetRange is refused on more than
// one node, because a range spans shards. Every call is sent once, alone, to
// its key's owner, so a Cluster over one node answers as a plain client.Conn
// does; cluster.New takes the node addresses and nothing else. Failure is
// the design center: per-node health is the circuit breaker the backend tier
// uses too (internal/breaker: three consecutive transport failures trip a
// node Down, after which its shard fails fast with ErrNodeDown — no dial, no
// timeout, no parked goroutine — until a single probe loop's dial+ping heals
// it, with zero client restarts); a 2 s bound on connect+hello keeps a
// blackholed address from hanging a dial or a probe, and a 5 s per-batch
// deadline fails a frozen node's in-flight requests. Only a key's owner ever
// answers for it: an operation whose owner is down fails rather than
// retrying on another shard. internal/netfault is the matching TCP-proxy
// fault injector (latency, blackhole, refuse, freeze, truncate, reset,
// retarget, heal); the partition-torture harness drives a live workload over
// three proxied nodes through kill/partition/slow/heal schedules and asserts
// no acked write is lost, no reply comes from the wrong shard, dead-shard
// ops stay inside one timeout budget with bounded goroutines, and healed
// nodes rejoin.
// masstree-client -addrs a,b,c routes the CLI through the same ring, with
// one command switch over a client.KV for both modes.
//
// Observability (internal/obs) makes the store explain itself without
// perturbing what it explains, and it has no off switch. Every timed stage — get/put/batch/scan/
// CAS/getorload server-side, WAL flush, checkpoint write, each recovery
// phase, backend loads, eviction passes, cluster per-node RPC — records
// into a log-bucketed latency histogram (64 power-of-two buckets; bucket b
// covers [2^b, 2^(b+1)) ns) whose record path is one bits.Len64 and two
// atomic adds into a per-worker cache-line-padded shard: ~14ns, zero
// allocations (//masstree:noalloc, enforced by the noalloc analyzer,
// TestRecordPathsAllocFree and the AllocsPerRun pins, which every store runs
// instrumented; the end-to-end benchmark reports the record's cost as
// obs.record_ns). Snapshots merge shards
// lock-free and extract p50/p90/p99/p999. Alongside the histograms runs the
// flight recorder: fixed-size per-worker rings of binary trace events for
// internal transitions (breaker trips/heals, evictions, WAL flush retries
// and errors, checkpoint steps, recovery chain-rollbacks, node health
// changes), dumpable on demand — the torture harnesses dump it on first
// failure, so a failed crash image ships its own story. The data surfaces
// three ways, all rendered from the same snapshot so they cannot disagree:
// the wire Stats op gains lat_<stage>_count/_sum/_p50/_p90/_p99/_p999 and
// per-bucket lat_<stage>_b<i> keys (all base-10 integers, so the numeric
// views — client.Conn.Stats, the cluster aggregate — keep every one, pinned
// by stats_compat_test);
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
// internal/kvstore enumerate those boundaries, kill the store at each one,
// recover from every legal crash image (three sets of surviving directory
// ops, plus one per worker with its logs removed), and check the result
// against a model of acknowledged writes — no lost acks, no resurrections,
// exact per-key versions. A new crash scenario is one more crashRun
// configuration: a workload, and at most one check of its own.
//
// The invariants those paragraphs lean on — locks released on every path,
// hot paths allocation-free, scratch aliases never stored past reuse, log
// records chained to the version they replace — are machine-checked.
// internal/analysis is a dependency-free go/analysis-style suite whose four
// passes (lockpair, noalloc, scratchalias, walchain) verify them at build
// time; `go run ./cmd/masstree-lint ./...` must exit clean and CI enforces
// it. Atomic fields are never touched plainly because each is a typed
// atomic, and the version word's bits change only in internal/occ because
// the word is unexported there.
// Contracts are declared where the code is:
//
//	//masstree:locked n        n is locked on entry and at every return
//	//masstree:unlocks n       n is locked on entry, released on every path
//	//masstree:returns-locked  nil holding no lock, or the result's lock alone
//	//masstree:acquires n.h    this statement acquires n.h invisibly
//	//masstree:releases n.h    this statement releases n.h invisibly
//	//masstree:noalloc         steady state performs zero heap allocations
//	//masstree:scratch         this type hands out aliases of reusable memory
//
// Deliberate exceptions carry //lint:allow <analyzer> <reason> on the
// offending line or the line above; the reason is mandatory, and a bare
// allow, an allow naming no analyzer of the suite and a masstree:
// directive with any other verb are each a finding. Each analyzer is backed by golden fixtures
// under its testdata/src (run with the ordinary go test).
//
// See DESIGN.md for the system inventory: the package map, the invariant
// catalog behind the analyzers, the numbered paper-to-Go substitutions,
// and the experiment index. The committed snapshot at the repository root
// is BENCH_pipeline_v2.json (pipelining); BENCH_obs.json beside it is a
// dated record of an experiment that no longer exists. Tier-1 tests assert the cache, herd, cluster
// and chained-WAL properties: TestCacheBoundZipfian,
// TestS3FIFOBeatsPlainFIFOOnZipfian and TestCacheKeepsZipfHeadResident;
// TestGetOrLoadHerd; TestPartitionTorture; TestPartialColumnReplayHole,
// TestBrokenChainRollsBackToAnchoredPrefix and TestRecoveredRule (the rule
// internal/model, the tests' one reference, holds each crash image to). The
// end-to-end benchmark under benchmark/ measures the read, write and restart
// paths. The implementation lives under internal/; runnable entry points are
// under cmd/ and examples/ (examples/pipeline demonstrates the async client
// and CAS; examples/cachefront the bounded cache; examples/readthrough the
// backend tier under faults).
package repro
