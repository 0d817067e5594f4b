package cluster

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/breaker"
	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/obs"
)

// ErrNodeDown is returned (wrapped with the node address) for operations
// against a node whose breaker is open. It is the fail-fast signal: the
// caller spent no timeout budget and parked no goroutine.
var ErrNodeDown = fmt.Errorf("cluster: node down")

// errClosed is returned for operations on a closed Cluster.
var errClosed = errors.New("cluster: closed")

// node is one cluster member as the client sees it: a stable address, one
// pipelined v2 connection that every request to the node shares, and a
// circuit breaker fed by transport outcomes and the probe loop. The
// breaker's states are the node's health, reported numerically in stats
// (node<i>_state) by the same rule as the backend's breaker_state:
//
//   - Closed (0, up): operations route to the node normally.
//   - Open (1, down): timing.failures consecutive transport failures
//     tripped it; operations fail fast with ErrNodeDown (no dial, no
//     timeout wait, no goroutine parked) until the cool-down lapses.
//   - HalfOpen (2, probing): the cool-down lapsed and the probe loop tests
//     the node with a fresh dial + ping. Operations still fail fast — one
//     probe, not a thundering herd of retriers, decides recovery.
type node struct {
	addr string
	idx  int           // node index in address order (stats, hist shard)
	rec  *obs.Recorder // cluster flight recorder; health transitions trace here
	br   *breaker.Breaker
	// opts build every connection to the node: the op timeout becomes the
	// per-batch I/O deadline (a frozen node fails every in-flight op within
	// budget) and the dial timeout bounds connect+hello (a blackholed
	// address cannot hang a dial or a probe).
	opts []client.ConnOption

	mu     sync.Mutex
	c      *client.Conn // nil until dialed, and again after a transport error
	closed bool
}

func newNode(addr string, idx int, rec *obs.Recorder, tm timing) *node {
	return &node{
		addr: addr,
		idx:  idx,
		rec:  rec,
		br:   breaker.New(tm.failures, tm.downFor, clock.Wall{}),
		opts: []client.ConnOption{client.WithDialTimeout(tm.dial), client.WithTimeout(tm.op)},
	}
}

// conn returns the node's connection, dialing it if there is none. Fails
// fast with ErrNodeDown when the node's breaker is not Closed.
func (n *node) conn() (*client.Conn, error) {
	if n.br.State() != breaker.Closed {
		return nil, fmt.Errorf("%w (%s)", ErrNodeDown, n.addr)
	}
	n.mu.Lock()
	c, closed := n.c, n.closed
	n.mu.Unlock()
	if closed {
		return nil, errClosed
	}
	if c != nil {
		return c, nil
	}
	// Dial outside the lock, so a slow handshake never blocks Close or
	// another request's feedback; a lost dial race closes the extra.
	c, err := client.DialConn(n.addr, n.opts...)
	if err != nil {
		n.feedback(nil, err)
		return nil, err
	}
	return n.adopt(c)
}

// adopt installs a freshly dialed connection unless another dial won the
// race, in which case c is closed and the winner returned. A closed node
// takes no connection.
func (n *node) adopt(c *client.Conn) (*client.Conn, error) {
	n.mu.Lock()
	cur, closed := n.c, n.closed
	if cur == nil && !closed {
		n.c = c
	}
	n.mu.Unlock()
	switch {
	case closed:
		c.Close()
		return nil, errClosed
	case cur != nil:
		c.Close()
		return cur, nil
	}
	return c, nil
}

// feedback records one operation outcome against the node's breaker. A
// transport error discards the failed connection (its sticky error dooms
// every future batch on it anyway) and counts toward the trip threshold;
// success resets the streak. Status-level results (NotFound, Conflict,
// even StatusError) are not failures — the node answered.
func (n *node) feedback(c *client.Conn, err error) {
	if err != nil && c != nil {
		n.mu.Lock()
		stale := n.c == c
		if stale {
			n.c = nil
		}
		n.mu.Unlock()
		if stale {
			c.Close()
		}
	}
	if n.br.Record(false, err == nil) {
		n.rec.Record(n.idx, obs.EvNodeDown, uint64(n.idx), n.br.Opens())
	}
}

// probe is the health loop's visit. Once the breaker admits a probe (the
// node is down past its cool-down) it dials fresh and pings (OpStats);
// success makes the probe connection the node's and closes the breaker,
// failure reopens it for another cool-down.
func (n *node) probe() {
	probe, _ := n.br.Allow()
	if !probe {
		return
	}
	n.rec.Record(n.idx, obs.EvNodeProbing, uint64(n.idx), n.br.Opens())

	c, err := client.DialConn(n.addr, n.opts...)
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
	n.adopt(c)
	n.br.Record(true, true)
	n.rec.Record(n.idx, obs.EvNodeUp, uint64(n.idx), n.br.Opens())
}

// close tears down the node's connection.
func (n *node) close() {
	n.mu.Lock()
	c := n.c
	n.c, n.closed = nil, true
	n.mu.Unlock()
	if c != nil {
		c.Close()
	}
}
