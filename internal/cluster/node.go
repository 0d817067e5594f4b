package cluster

import (
	"fmt"
	"sync"

	"repro/internal/breaker"
	"repro/internal/client"
	"repro/internal/obs"
)

// ErrNodeDown is returned (wrapped with the node address) for operations
// against a node whose breaker is open. It is the fail-fast signal: the
// caller spent no timeout budget and parked no goroutine.
var ErrNodeDown = fmt.Errorf("cluster: node down")

// poolSize is connections per node. Two is the useful minimum once hedged
// reads are armed: the hedge wants distinct TCP state.
const poolSize = 2

// node is one cluster member as the client sees it: a stable address, a
// small pool of pipelined v2 connections, and a circuit breaker fed by
// transport outcomes and the probe loop. The breaker's states are the
// node's health, reported numerically in stats (node<i>_state) by the same
// rule as the backend's breaker_state:
//
//   - Closed (0, up): operations route to the node normally.
//   - Open (1, down): Config.NodeFailures consecutive transport failures
//     tripped it; operations fail fast with ErrNodeDown (no dial, no
//     timeout wait, no goroutine parked) until the cool-down lapses.
//   - HalfOpen (2, probing): the cool-down lapsed and the probe loop tests
//     the node with a fresh dial + ping. Operations still fail fast — one
//     probe, not a thundering herd of retriers, decides recovery.
type node struct {
	addr string
	cfg  *Config
	idx  int           // node index in Config.Addrs order (stats, hist shard)
	rec  *obs.Recorder // cluster flight recorder; health transitions trace here
	br   *breaker.Breaker

	mu     sync.Mutex
	conns  [poolSize]*client.Conn // nil slots dial lazily
	next   int                    // round-robin cursor over pool slots
	closed bool
}

func newNode(addr string, cfg *Config) *node {
	return &node{addr: addr, cfg: cfg, br: breaker.New(cfg.NodeFailures, cfg.DownFor)}
}

// dialOpts are the options every pooled connection is built with: the
// cluster's op timeout becomes the per-batch I/O deadline (a frozen node
// fails every in-flight op within budget) and the dial timeout bounds
// connect+hello (a blackholed address cannot hang pool fill or probing).
func (n *node) dialOpts() []client.ConnOption {
	opts := []client.ConnOption{client.WithDialTimeout(n.cfg.DialTimeout)}
	if n.cfg.OpTimeout > 0 {
		opts = append(opts, client.WithTimeout(n.cfg.OpTimeout))
	}
	return opts
}

// conn returns a healthy pooled connection (round-robin over the slots),
// dialing the slot lazily if empty. Fails fast with ErrNodeDown when the
// node's breaker is not Closed.
func (n *node) conn() (*client.Conn, error) {
	if n.br.State() != breaker.Closed {
		return nil, fmt.Errorf("%w (%s)", ErrNodeDown, n.addr)
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, fmt.Errorf("cluster: closed")
	}
	slot := n.next
	n.next = (slot + 1) % len(n.conns)
	c := n.conns[slot]
	n.mu.Unlock()
	if c != nil {
		return c, nil
	}
	// Dial outside the lock: a slow handshake must not serialize the pool.
	// Losing a fill race just closes the extra connection.
	c, err := client.DialConn(n.addr, n.dialOpts()...)
	if err != nil {
		n.feedback(nil, err)
		return nil, err
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		c.Close()
		return nil, fmt.Errorf("cluster: closed")
	}
	if n.conns[slot] == nil {
		n.conns[slot] = c
	} else {
		old := c
		c = n.conns[slot]
		n.mu.Unlock()
		old.Close()
		return c, nil
	}
	n.mu.Unlock()
	return c, nil
}

// dialFresh opens a brand-new connection outside the pool — the hedged
// read's escape hatch from bad per-connection state (a frozen flow, a deep
// queue). Fails fast when the node's breaker is not Closed.
func (n *node) dialFresh() (*client.Conn, error) {
	if n.br.State() != breaker.Closed {
		return nil, fmt.Errorf("%w (%s)", ErrNodeDown, n.addr)
	}
	c, err := client.DialConn(n.addr, n.dialOpts()...)
	if err != nil {
		n.feedback(nil, err)
	}
	return c, err
}

// donate offers a fresh healthy connection to the pool; a full pool means
// it is simply closed. Called after a hedge win so the proven-good
// connection replaces whatever slot a timeout is about to vacate.
func (n *node) donate(c *client.Conn) {
	n.mu.Lock()
	if !n.closed {
		for i, pc := range n.conns {
			if pc == nil {
				n.conns[i] = c
				n.mu.Unlock()
				return
			}
		}
	}
	n.mu.Unlock()
	c.Close()
}

// feedback records one operation outcome against the node's breaker. A
// transport error discards the failed connection (its sticky error dooms
// every future batch on it anyway) and counts toward the trip threshold;
// success resets the streak. Status-level results (NotFound, Conflict,
// even StatusError) are not failures — the node answered.
func (n *node) feedback(c *client.Conn, err error) {
	if err != nil && c != nil {
		var stale *client.Conn
		n.mu.Lock()
		for i, pc := range n.conns {
			if pc == c {
				n.conns[i], stale = nil, c
				break
			}
		}
		n.mu.Unlock()
		if stale != nil {
			stale.Close()
		}
	}
	if n.br.Record(false, err == nil) {
		n.rec.Record(n.idx, obs.EvNodeDown, uint64(n.idx), n.br.Opens())
	}
}

// probe is the health loop's visit. Once the breaker admits a probe (the
// node is down past its cool-down) it dials fresh and pings (OpStats);
// success seeds the pool with the probe connection and closes the breaker,
// failure reopens it for another cool-down.
func (n *node) probe() {
	probe, _ := n.br.Allow()
	if !probe {
		return
	}
	n.rec.Record(n.idx, obs.EvNodeProbing, uint64(n.idx), n.br.Opens())

	c, err := client.DialConn(n.addr, n.dialOpts()...)
	if err == nil {
		_, err = c.Stats() // a full request round-trip, not just a handshake
	}
	if err != nil {
		if c != nil {
			c.Close()
		}
		n.br.Record(true, false)
		n.rec.Record(n.idx, obs.EvNodeDown, uint64(n.idx), n.br.Opens())
		return
	}
	// Recovered: the probe connection becomes pool slot 0 unless a hedge's
	// donated connection already fills it.
	n.mu.Lock()
	if n.conns[0] == nil && !n.closed {
		n.conns[0], c = c, nil
	}
	n.mu.Unlock()
	if c != nil {
		c.Close()
	}
	n.br.Record(true, true)
	n.rec.Record(n.idx, obs.EvNodeUp, uint64(n.idx), n.br.Opens())
}

// close tears down the node's pool.
func (n *node) close() {
	n.mu.Lock()
	n.closed = true
	conns := n.conns
	n.conns = [poolSize]*client.Conn{}
	n.mu.Unlock()
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
}
