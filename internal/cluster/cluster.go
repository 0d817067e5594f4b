// Package cluster is the client-side sharding layer: a Cluster
// consistent-hashes keys across N masstree servers and speaks pipelined
// protocol v2 to each through a small per-node connection pool. One process
// is the ceiling no matter how fast the tree gets; the cluster layer is how
// many stores serve one keyspace.
//
// Failure is a first-class input, not an afterthought:
//
//   - Per-node health is a circuit breaker (internal/breaker, the one the
//     backend tier uses): NodeFailures consecutive transport failures trip
//     a node Down (Open), after which operations against its shard fail
//     fast with ErrNodeDown — no dial, no timeout wait, no goroutine
//     parked — until the cool-down lapses and the probe loop's dial+ping
//     succeeds (HalfOpen→Closed). A healed node rejoins with zero client
//     restarts.
//   - Every pooled connection carries the cluster's OpTimeout as its
//     per-batch I/O deadline and DialTimeout over connect+hello, so a
//     blackholed or frozen node costs at most one timeout budget per
//     connection before the breaker takes over.
//   - Only the owner ever answers for a key. A read or write whose owner
//     is down fails; nothing retries it on another shard, which might miss
//     keys the owner holds or, for a write, split ownership.
//   - HedgeAfter (off by default) arms hedged reads: if the owner has not
//     answered an idempotent read within the threshold, a second attempt is
//     launched on a different pooled connection to the same node and the
//     first answer wins. This defends against per-connection pathologies —
//     a flow orphaned by a partition, head-of-line blocking behind a deep
//     batch, a lossy path — without ever consulting the wrong shard.
//
// Single-key calls are client.KV's, which Cluster embeds as client.Conn
// does: the same methods, the same status decoding, over an executor that
// sends gets to hedgedRead and every other request to writeOne, both on
// the key's owner. A single GetRange is refused on more than one node,
// because a range spans shards.
//
// Batches shard transparently: GetBatch/PutBatch (and the general Do)
// split a request batch by owner, fan the sub-batches out concurrently,
// and merge replies back into request order. A batch that lands entirely
// on one node is forwarded verbatim — which is why a Cluster over a single
// node is byte-for-byte equivalent to a plain client.Conn (pinned by
// TestClusterSingleNodeEquivalence).
package cluster

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Config sizes and arms a Cluster. The zero value of every field picks a
// conservative default; only Addrs is required.
type Config struct {
	// Addrs are the node addresses. Order defines node indices in stats;
	// ring positions follow the address strings, not the order.
	Addrs []string
	// DialTimeout bounds connect+hello per dial attempt (0 = 2s). This is
	// what keeps a blackholed address from hanging pool fills and probes.
	DialTimeout time.Duration
	// OpTimeout is the per-batch I/O deadline on every pooled connection
	// (0 = 5s): a frozen node fails all its in-flight operations within
	// this budget.
	OpTimeout time.Duration
	// NodeFailures is the consecutive-transport-failure threshold that
	// trips a node Down (0 = 3).
	NodeFailures int
	// DownFor is how long a tripped node stays Down before the probe loop
	// may test it (0 = 1s).
	DownFor time.Duration
	// ProbeInterval is the health loop period (0 = 100ms).
	ProbeInterval time.Duration
	// HedgeAfter, when > 0, launches a second same-node attempt for
	// idempotent reads that have not answered within the threshold.
	HedgeAfter time.Duration
}

func (cfg *Config) withDefaults() error {
	if len(cfg.Addrs) == 0 {
		return errors.New("cluster: no addresses")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 5 * time.Second
	}
	if cfg.NodeFailures <= 0 {
		cfg.NodeFailures = 3
	}
	if cfg.DownFor <= 0 {
		cfg.DownFor = time.Second
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 100 * time.Millisecond
	}
	return nil
}

// Cluster routes operations across the ring. All methods are safe for
// concurrent use. Construction is purely local (no network I/O): pools
// fill lazily, so a cluster over a currently-dark node constructs
// instantly and the node simply trips Down on first use.
type Cluster struct {
	client.KV // the typed single-key calls, each routed by one

	cfg   Config
	ring  *Ring
	nodes []*node

	stats clusterCounters

	// rpcHist shards per *node index* (not per worker): shard i is node i's
	// RPC latency, so ShardSnapshot(i) answers "how slow is shard i" while
	// Snapshot() answers "how slow is the cluster". rec traces node health
	// transitions (Down/Probing/Up), one ring per node.
	rpcHist *obs.Hist
	rec     *obs.Recorder

	stop chan struct{}
	done chan struct{}
}

// New builds a Cluster over cfg.Addrs and starts its health-probe loop.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:  cfg,
		ring: NewRing(cfg.Addrs),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	c.KV = client.NewKV(c.one)
	c.rpcHist = obs.NewHist("rpc", len(cfg.Addrs))
	c.rec = obs.NewRecorder(len(cfg.Addrs))
	for i, addr := range cfg.Addrs {
		n := newNode(addr, &c.cfg)
		n.idx = i
		n.rec = c.rec
		c.nodes = append(c.nodes, n)
	}
	go c.probeLoop()
	return c, nil
}

// Recorder exposes the cluster's flight recorder: the timeline of node
// health transitions (down/probing/up), one ring per node. Torture
// harnesses dump it on first failure.
func (c *Cluster) Recorder() *obs.Recorder { return c.rec }

// Close stops the probe loop and closes every pooled connection.
func (c *Cluster) Close() {
	close(c.stop)
	<-c.done
	for _, n := range c.nodes {
		n.close()
	}
}

// probeLoop periodically offers each node a recovery probe, which only a
// node down past its cool-down takes. One loop for the whole cluster:
// recovery is decided by a single dial+ping per node per interval, never
// by a herd of failing operations.
func (c *Cluster) probeLoop() {
	defer close(c.done)
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			for _, n := range c.nodes {
				n.probe()
			}
		}
	}
}

// Owner exposes the ring's key→node-index mapping (tests and operators
// both want to ask "who owns this key").
func (c *Cluster) Owner(key []byte) int { return c.ring.Owner(key) }

// exec runs one request batch against node n over a pooled connection and
// returns cloned (caller-owned) responses. Transport failures feed the
// node's breaker; protocol-level statuses do not.
func (c *Cluster) exec(n *node, reqs []wire.Request) ([]wire.Response, error) {
	conn, err := n.conn()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	resps, err := conn.Do(reqs)
	c.rpcHist.Record(n.idx, time.Since(start))
	n.feedback(conn, err)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %s: %w", n.addr, err)
	}
	return resps, nil
}

// Do executes a mixed request batch, routing each request to its key's
// owner: requests are grouped by owner (preserving relative order within
// each node's sub-batch, which keeps the server's run-batching effective),
// the groups fan out concurrently, and replies merge back into request
// order. With a single owner the batch is forwarded verbatim.
//
// On a per-node failure the whole call returns that node's error; requests
// routed to other nodes still executed (puts may have applied). Callers
// needing partial results should shard their batches themselves.
func (c *Cluster) Do(reqs []wire.Request) ([]wire.Response, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	// Fast path: one owner for the whole batch (always true for N=1).
	first := c.ring.Owner(reqs[0].Key)
	single := true
	for i := 1; i < len(reqs); i++ {
		if c.ring.Owner(reqs[i].Key) != first {
			single = false
			break
		}
	}
	if single {
		return c.exec(c.nodes[first], reqs)
	}

	c.stats.splitBatches.Add(1)
	groups := make(map[int][]int) // node -> request indices, in order
	for i := range reqs {
		o := c.ring.Owner(reqs[i].Key)
		groups[o] = append(groups[o], i)
	}
	out := make([]wire.Response, len(reqs))
	errCh := make(chan error, len(groups))
	for o, idxs := range groups {
		go func(o int, idxs []int) {
			sub := make([]wire.Request, len(idxs))
			for j, i := range idxs {
				sub[j] = reqs[i]
			}
			resps, err := c.exec(c.nodes[o], sub)
			if err == nil {
				for j, i := range idxs {
					out[i] = resps[j]
				}
			}
			errCh <- err
		}(o, idxs)
	}
	var firstErr error
	for range groups {
		if err := <-errCh; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return out, firstErr
	}
	return out, nil
}

// execFresh runs one request batch over a brand-new connection, bypassing
// the pool — the hedge path. On success the connection is donated to the
// pool (it is proven good; the slot a timing-out connection is about to
// vacate gets a warm replacement).
func (c *Cluster) execFresh(n *node, reqs []wire.Request) ([]wire.Response, error) {
	conn, err := n.dialFresh()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	resps, err := conn.Do(reqs)
	c.rpcHist.Record(n.idx, time.Since(start))
	n.feedback(nil, err)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: node %s (hedge): %w", n.addr, err)
	}
	n.donate(conn)
	return resps, nil
}

// hedgedRead runs req against n; if the pooled attempt has not answered
// within HedgeAfter, a second attempt is launched on a fresh connection
// and the first *successful* answer wins (fresh TCP state is the point:
// the pooled flow may be orphaned by a partition or stuck behind a deep
// batch, while a new dial routes fine). If every attempt fails, the last
// error is returned. With hedging unarmed it is a plain exec.
func (c *Cluster) hedgedRead(n *node, req wire.Request) (wire.Response, error) {
	reqs := []wire.Request{req}
	if c.cfg.HedgeAfter <= 0 {
		resps, err := c.exec(n, reqs)
		if err != nil {
			return wire.Response{}, err
		}
		return resps[0], nil
	}
	type attempt struct {
		resps []wire.Response
		err   error
		hedge bool
	}
	ch := make(chan attempt, 2) // buffered: the loser writes and exits
	launch := func(hedge bool) {
		go func() {
			var resps []wire.Response
			var err error
			if hedge {
				resps, err = c.execFresh(n, reqs)
			} else {
				resps, err = c.exec(n, reqs)
			}
			ch <- attempt{resps: resps, err: err, hedge: hedge}
		}()
	}
	launch(false)
	outstanding := 1
	hedged := false
	timer := time.NewTimer(c.cfg.HedgeAfter)
	defer timer.Stop()
	var lastErr error
	for outstanding > 0 {
		select {
		case a := <-ch:
			outstanding--
			if a.err == nil {
				if a.hedge {
					c.stats.hedgeWins.Add(1)
				}
				return a.resps[0], nil
			}
			lastErr = a.err
		case <-timer.C:
			if !hedged {
				hedged = true
				c.stats.hedges.Add(1)
				launch(true)
				outstanding++
			}
		}
	}
	return wire.Response{}, lastErr
}

// writeOne executes one request on its key's owner with no hedge: a write
// is not idempotent. A getrange on a one-node cluster comes here too.
func (c *Cluster) writeOne(req wire.Request) (wire.Response, error) {
	resps, err := c.exec(c.nodes[c.ring.Owner(req.Key)], []wire.Request{req})
	if err != nil {
		return wire.Response{}, err
	}
	return resps[0], nil
}

// errRangeSpansShards refuses a single getrange on more than one node: a
// range spans shards, and the cluster does not merge ranges.
var errRangeSpansShards = errors.New("cluster: getrange spans shards; it needs a single node")

// one executes a single request for the embedded KV: idempotent reads go
// to hedgedRead on the key's owner, everything else to writeOne.
func (c *Cluster) one(req wire.Request) (wire.Response, error) {
	switch req.Op {
	case wire.OpGet, wire.OpGetOrLoad:
		return c.hedgedRead(c.nodes[c.ring.Owner(req.Key)], req)
	case wire.OpGetRange:
		if len(c.nodes) > 1 {
			return wire.Response{}, errRangeSpansShards
		}
	}
	return c.writeOne(req)
}

// GetBatch reads many keys in one call: the batch splits by owner shard,
// fans out concurrently, and merges into request order. resps[i] answers
// keys[i] with the same statuses a single Get would see.
func (c *Cluster) GetBatch(keys [][]byte, cols []int) ([]wire.Response, error) {
	reqs := make([]wire.Request, len(keys))
	for i, k := range keys {
		reqs[i] = wire.Request{Op: wire.OpGet, Key: k, Cols: cols}
	}
	return c.Do(reqs)
}

// PutBatch writes many keys in one call, split and fanned out like
// GetBatch; vers[i] is the new version of keys[i].
func (c *Cluster) PutBatch(keys [][]byte, puts [][]wire.ColData) ([]uint64, error) {
	reqs := make([]wire.Request, len(keys))
	for i, k := range keys {
		reqs[i] = wire.Request{Op: wire.OpPut, Key: k, Puts: puts[i]}
	}
	resps, err := c.Do(reqs)
	if err != nil {
		return nil, err
	}
	vers := make([]uint64, len(resps))
	for i, r := range resps {
		vers[i] = r.Version
	}
	return vers, nil
}
