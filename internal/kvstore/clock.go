package kvstore

import "sync/atomic"

// shardedClock implements the paper's loosely synchronized per-worker
// version clocks (§5.1). The old design drew every version and log
// timestamp from one global atomic counter — a single cache line bounced
// between all writing cores on every put, which serialized the write path
// long before the tree did. Here each worker ticks its own cache-line-
// padded clock, so a steady-state put touches no shared clock state at all.
//
// The recovery invariant that matters is per key, not global: a key's
// updates must carry strictly increasing timestamps so log replay can apply
// them in version order (§5). tick guarantees that by lifting the worker's
// clock past a floor the caller derives under the owning border node's
// lock — the replaced value's version for updates and removes, and
// removeFloor for fresh inserts (see below). Values are worker-tagged
// (value.Worker) so merged logs can attribute a version to the clock that
// issued it.
//
// Clocks are "loosely synchronized": the store's maintenance loop
// periodically lifts every shard to the global maximum, so an idle worker's
// log timestamps do not fall arbitrarily behind and recovery's cutoff
// t = min over logs of the log's maximum durable timestamp stays fresh.
type shardedClock struct {
	shards []clockShard

	// removeFloor is the maximum version any remove has consumed. The tree
	// retains no memory of a removed key's last version, so a re-insert on a
	// cold worker clock could otherwise be assigned a version below the
	// remove's log timestamp and replay in the wrong order (resurrecting the
	// remove). Departures (Store.retire) are the only writers; puts of
	// existing keys never touch it; inserts only load it — a read-mostly
	// line in every core's cache, not the per-put RMW the global clock was.
	removeFloor atomic.Uint64
}

// clockShard pads each worker's clock to a cache line so neighboring
// workers' ticks do not false-share.
type clockShard struct {
	c atomic.Uint64
	_ [56]byte
}

func newShardedClock(workers int) *shardedClock {
	if workers < 1 {
		workers = 1
	}
	return &shardedClock{shards: make([]clockShard, workers)}
}

// tick returns the next version for worker w: one past both the worker's
// clock and floor. The CAS loop only contends when two sessions share a
// worker id; a dedicated worker's tick is an uncontended RMW on its own
// cache line.
func (c *shardedClock) tick(w int, floor uint64) uint64 {
	sh := &c.shards[w%len(c.shards)]
	for {
		cur := sh.c.Load()
		next := cur + 1
		if next <= floor {
			next = floor + 1
		}
		if sh.c.CompareAndSwap(cur, next) {
			return next
		}
	}
}

// noteRemove lifts removeFloor to at least ver after a remove consumed it.
func (c *shardedClock) noteRemove(ver uint64) {
	for {
		cur := c.removeFloor.Load()
		if cur >= ver || c.removeFloor.CompareAndSwap(cur, ver) {
			return
		}
	}
}

// max returns the largest version issued so far (checkpoint start
// timestamps, shutdown marks).
func (c *shardedClock) max() uint64 {
	m := c.removeFloor.Load()
	for i := range c.shards {
		if v := c.shards[i].c.Load(); v > m {
			m = v
		}
	}
	return m
}

// seed lifts every shard and the remove floor to at least v; recovery uses
// it so fresh versions exceed everything replayed from disk.
func (c *shardedClock) seed(v uint64) {
	for i := range c.shards {
		c.lift(&c.shards[i], v)
	}
	c.noteRemove(v)
}

// synchronize is the periodic loose synchronization (§5.1): lift every
// shard to the current global maximum, returned for mark-writing.
func (c *shardedClock) synchronize() uint64 {
	m := c.max()
	c.seed(m)
	return m
}

func (c *shardedClock) lift(sh *clockShard, v uint64) {
	for {
		cur := sh.c.Load()
		if cur >= v || sh.c.CompareAndSwap(cur, v) {
			return
		}
	}
}
