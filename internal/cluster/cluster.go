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
// Every call is client.KV's, which Cluster embeds as client.Conn does: the
// same methods, the same status decoding, over an executor that sends each
// request alone to its key's owner, gets through hedgedRead. A single
// GetRange is refused on more than one node, because a range spans shards.
// There is no batch call, so a Cluster over a single node answers exactly
// as a plain client.Conn does (pinned by TestClusterSingleNodeEquivalence).
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

// exec runs one request against node n over a pooled connection and
// returns its cloned (caller-owned) response. Transport failures feed the
// node's breaker; protocol-level statuses do not.
func (c *Cluster) exec(n *node, req wire.Request) (wire.Response, error) {
	conn, err := n.conn()
	if err != nil {
		return wire.Response{}, err
	}
	start := time.Now()
	resps, err := conn.Do([]wire.Request{req})
	c.rpcHist.Record(n.idx, time.Since(start))
	n.feedback(conn, err)
	if err != nil {
		return wire.Response{}, fmt.Errorf("cluster: node %s: %w", n.addr, err)
	}
	return resps[0], nil
}

// execFresh runs one request over a brand-new connection, bypassing the
// pool — the hedge path. On success the connection is donated to the pool
// (it is proven good; the slot a timing-out connection is about to vacate
// gets a warm replacement).
func (c *Cluster) execFresh(n *node, req wire.Request) (wire.Response, error) {
	conn, err := n.dialFresh()
	if err != nil {
		return wire.Response{}, err
	}
	start := time.Now()
	resps, err := conn.Do([]wire.Request{req})
	c.rpcHist.Record(n.idx, time.Since(start))
	n.feedback(nil, err)
	if err != nil {
		conn.Close()
		return wire.Response{}, fmt.Errorf("cluster: node %s (hedge): %w", n.addr, err)
	}
	n.donate(conn)
	return resps[0], nil
}

// hedgedRead runs req against n; if the pooled attempt has not answered
// within HedgeAfter, a second attempt is launched on a fresh connection
// and the first *successful* answer wins (fresh TCP state is the point:
// the pooled flow may be orphaned by a partition or stuck behind a deep
// batch, while a new dial routes fine). If every attempt fails, the last
// error is returned. With hedging unarmed it is a plain exec.
func (c *Cluster) hedgedRead(n *node, req wire.Request) (wire.Response, error) {
	if c.cfg.HedgeAfter <= 0 {
		return c.exec(n, req)
	}
	type attempt struct {
		resp  wire.Response
		err   error
		hedge bool
	}
	ch := make(chan attempt, 2) // buffered: the loser writes and exits
	launch := func(hedge bool) {
		go func() {
			a := attempt{hedge: hedge}
			if hedge {
				a.resp, a.err = c.execFresh(n, req)
			} else {
				a.resp, a.err = c.exec(n, req)
			}
			ch <- a
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
				return a.resp, nil
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

// errRangeSpansShards refuses a single getrange on more than one node: a
// range spans shards, and the cluster does not merge ranges.
var errRangeSpansShards = errors.New("cluster: getrange spans shards; it needs a single node")

// one executes a single request for the embedded KV on its key's owner:
// idempotent reads go to hedgedRead, everything else to a plain exec with
// no hedge, because a write is not idempotent. A getrange on a one-node
// cluster is a plain exec too.
func (c *Cluster) one(req wire.Request) (wire.Response, error) {
	n := c.nodes[c.ring.Owner(req.Key)]
	switch req.Op {
	case wire.OpGet, wire.OpGetOrLoad:
		return c.hedgedRead(n, req)
	case wire.OpGetRange:
		if len(c.nodes) > 1 {
			return wire.Response{}, errRangeSpansShards
		}
	}
	return c.exec(n, req)
}
