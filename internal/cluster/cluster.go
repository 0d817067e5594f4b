// Package cluster is the client-side sharding layer: a Cluster
// consistent-hashes keys across N masstree servers and speaks pipelined
// protocol v2 to each over one connection per node. One process is the
// ceiling no matter how fast the tree gets; the cluster layer is how many
// stores serve one keyspace. A node needs no second connection: the
// client.Conn's tagged pipelining already keeps many requests in flight on
// one, as the paper's clients keep many queries in one message (§7).
//
// Failure is a first-class input, not an afterthought:
//
//   - Per-node health is a circuit breaker (internal/breaker, the one the
//     backend tier uses): three consecutive transport failures trip a node
//     Down (Open), after which operations against its shard fail fast with
//     ErrNodeDown — no dial, no timeout wait, no goroutine parked — until
//     the one-second cool-down lapses and the probe loop's dial+ping
//     succeeds (HalfOpen→Closed). A healed node rejoins with zero client
//     restarts.
//   - A node's connection carries a 5 s per-batch I/O deadline and a 2 s
//     bound on connect+hello, so a blackholed or frozen node costs at most
//     one timeout budget before the breaker takes over.
//   - Only the owner ever answers for a key. A read or write whose owner
//     is down fails; nothing retries it on another shard, which might miss
//     keys the owner holds or, for a write, split ownership.
//
// Every call is client.KV's, which Cluster embeds as client.Conn does: the
// same methods, the same status decoding, over an executor that sends each
// request once, alone, to its key's owner. A single GetRange is refused on
// more than one node, because a range spans shards. There is no batch
// call, so a Cluster over a single node answers exactly as a plain
// client.Conn does (both run internal/kvsuite against internal/model).
package cluster

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/wire"
)

// timing is the cluster's failure-detection budget. No program tunes it;
// the package's tests shorten it through newWithTiming.
type timing struct {
	dial     time.Duration // bounds connect+hello per dial attempt
	op       time.Duration // per-batch I/O deadline on a node's connection
	failures int           // consecutive transport failures that trip a node Down
	downFor  time.Duration // how long a tripped node stays Down before a probe
	probe    time.Duration // health loop period
}

var defaultTiming = timing{
	dial:     2 * time.Second,
	op:       5 * time.Second,
	failures: 3,
	downFor:  time.Second,
	probe:    100 * time.Millisecond,
}

// Cluster routes operations across the ring. All methods are safe for
// concurrent use. Construction is purely local (no network I/O): a node
// dials on first use, so a cluster over a currently-dark node constructs
// instantly and the node simply trips Down on first use.
type Cluster struct {
	client.KV // the typed single-key calls, each routed by one

	probeEvery time.Duration
	ring       *Ring
	nodes      []*node

	// rpcHist shards per *node index* (not per worker): shard i is node i's
	// RPC latency, so ShardSnapshot(i) answers "how slow is shard i" while
	// Snapshot() answers "how slow is the cluster". rec traces node health
	// transitions (Down/Probing/Up), one ring per node.
	rpcHist *obs.Hist
	rec     *obs.Recorder

	stop chan struct{}
	done chan struct{}
}

// New builds a Cluster over the node addresses and starts its
// health-probe loop. Their order defines node indices in stats; ring
// positions follow the address strings, not the order.
func New(addrs []string) (*Cluster, error) { return newWithTiming(addrs, defaultTiming) }

func newWithTiming(addrs []string, tm timing) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, errors.New("cluster: no addresses")
	}
	c := &Cluster{
		probeEvery: tm.probe,
		ring:       NewRing(addrs),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	c.KV = client.NewKV(c.one)
	c.rpcHist = obs.NewHist("rpc", len(addrs))
	c.rec = obs.NewRecorder(len(addrs))
	for i, addr := range addrs {
		c.nodes = append(c.nodes, newNode(addr, i, c.rec, tm))
	}
	go c.probeLoop()
	return c, nil
}

// Recorder exposes the cluster's flight recorder: the timeline of node
// health transitions (down/probing/up), one ring per node. Torture
// harnesses dump it on first failure.
func (c *Cluster) Recorder() *obs.Recorder { return c.rec }

// Close stops the probe loop and closes every node's connection.
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
	t := time.NewTicker(c.probeEvery)
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

// exec runs one request against node n over its connection and returns
// its cloned (caller-owned) response. Transport failures feed the node's
// breaker; protocol-level statuses do not.
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

// errRangeSpansShards refuses a single getrange on more than one node: a
// range spans shards, and the cluster does not merge ranges.
var errRangeSpansShards = errors.New("cluster: getrange spans shards; it needs a single node")

// one executes a single request for the embedded KV on its key's owner.
func (c *Cluster) one(req wire.Request) (wire.Response, error) {
	if req.Op == wire.OpGetRange && len(c.nodes) > 1 {
		return wire.Response{}, errRangeSpansShards
	}
	return c.exec(c.nodes[c.ring.Owner(req.Key)], req)
}
