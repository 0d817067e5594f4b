// Package netfault is a TCP proxy fault injector: a Proxy listens on its
// own address, forwards byte streams to a real listener, and injects
// network pathologies between them on command — added latency, dropped
// chunks, a blackhole that accepts connections but never moves a byte, a
// refuse mode that resets new connections immediately, mid-stream byte
// truncation, and connection resets — then heals back to clean forwarding.
//
// It exists so cluster tests can torture a client against *network*
// failures (slow node, partitioned node, dead node, garbage-truncating
// node) without touching the server process: the server stays healthy and
// reachable on its real address the whole time, which is exactly the
// partition illusion a real network fault presents. Faults are applied at
// chunk granularity in the copy loops, not at the packet level — close
// enough for protocol-robustness testing, and fully deterministic where it
// matters (TruncateAfter cuts at an exact byte offset).
//
// Typical scenario wiring:
//
//	p, _ := netfault.New(serverAddr) // proxy in front of a live server
//	c, _ := client.DialConn(p.Addr())
//	p.Blackhole()                    // partition: conns freeze, dials hang
//	... client must time out, fail fast, mark the node down ...
//	p.Heal()                         // network recovers
//	... client must re-dial and resume without restart ...
//
// A Proxy also supports retargeting (SetTarget) so a "node" can be killed
// and reborn on a fresh listener while the client keeps dialing one stable
// address — the proxy is the node's network identity, the listener behind
// it is an incarnation.
package netfault

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Fault modes. Exactly one is active at a time (plus latency/drop/truncate
// modifiers, which compose with Forward).
const (
	// ModeForward passes bytes through, subject to latency/drop/truncate.
	ModeForward = int32(iota)
	// ModeBlackhole accepts new connections but never dials upstream and
	// never delivers a byte in either direction on existing ones: the
	// TCP-level picture of a partition or a silently dead host. Clients
	// hang until their own deadlines fire.
	ModeBlackhole
	// ModeRefuse resets new connections immediately (accept, then close
	// with linger 0) and kills existing ones: the picture of a dead
	// process whose kernel still answers — clients fail fast.
	ModeRefuse
)

// Proxy is one fault-injectable TCP forwarding point. All control methods
// are safe to call concurrently with live traffic.
type Proxy struct {
	ln net.Listener

	target atomic.Value // string; upstream address

	mode      atomic.Int32
	latency   atomic.Int64 // ns added before each forwarded chunk
	dropEvery atomic.Int64 // drop every Nth chunk (0 = never)
	dropCtr   atomic.Int64
	truncate  atomic.Int64 // bytes still allowed through (-1 = unlimited)

	mu     sync.Mutex
	conns  map[net.Conn]struct{} // every live conn, both sides
	frozen map[net.Conn]struct{} // conns frozen by FreezeConns
	closed bool
	wg     sync.WaitGroup
}

// New starts a proxy on a fresh loopback port forwarding to target.
func New(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, conns: make(map[net.Conn]struct{})}
	p.target.Store(target)
	p.truncate.Store(-1)
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the address clients should dial instead of the real server.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetTarget repoints the upstream address for future connections — the
// seam for killing a server and rebirthing it on a new listener while the
// proxy keeps the node's stable network identity.
func (p *Proxy) SetTarget(target string) { p.target.Store(target) }

// SetLatency adds d before each forwarded chunk in both directions
// (0 removes it). Models a slow node or congested path.
func (p *Proxy) SetLatency(d time.Duration) { p.latency.Store(int64(d)) }

// DropEvery silently discards every nth forwarded chunk (n <= 0 disables).
// Over TCP this desynchronizes the byte stream, so the peer sees protocol
// garbage — a deliberately rude fault that protocol decoding must survive
// by failing the connection, not by misparsing.
func (p *Proxy) DropEvery(n int) {
	p.dropCtr.Store(0)
	p.dropEvery.Store(int64(n))
}

// TruncateAfter lets n more bytes through (each direction draws from the
// same budget), then kills every connection — a mid-message cut at an
// exact offset. n < 0 removes the limit.
func (p *Proxy) TruncateAfter(n int) { p.truncate.Store(int64(n)) }

// Blackhole partitions the node: existing connections freeze (bytes are
// swallowed, nothing is delivered, nothing is closed) and new connections
// are accepted but never answered. Heal unfreezes new connections only;
// frozen ones stay dead until a side gives up, exactly like real TCP
// flows orphaned by a partition.
func (p *Proxy) Blackhole() { p.mode.Store(ModeBlackhole) }

// Refuse makes the node look dead-with-a-live-kernel: existing
// connections are reset now and new ones are reset on arrival.
func (p *Proxy) Refuse() {
	p.mode.Store(ModeRefuse)
	p.KillConns()
}

// FreezeConns freezes every connection alive right now — their bytes are
// swallowed in both directions from here on — while new connections keep
// forwarding cleanly. This is the orphaned-flow fault: a transient
// partition strands established TCP flows (the peer never learns; only its
// own deadlines save it) while fresh connections route fine. Heal
// unfreezes nothing (the flows are lost, as in life); it only stops future
// freezes from applying.
func (p *Proxy) FreezeConns() {
	p.mu.Lock()
	if p.frozen == nil {
		p.frozen = make(map[net.Conn]struct{})
	}
	for c := range p.conns {
		p.frozen[c] = struct{}{}
	}
	p.mu.Unlock()
}

func (p *Proxy) isFrozen(c net.Conn) bool {
	p.mu.Lock()
	_, ok := p.frozen[c]
	p.mu.Unlock()
	return ok
}

// KillConns resets every live connection (linger 0 where supported)
// without changing the mode — a one-shot connection storm.
func (p *Proxy) KillConns() {
	p.mu.Lock()
	for c := range p.conns {
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetLinger(0)
		}
		c.Close()
	}
	p.mu.Unlock()
}

// Heal restores clean forwarding: mode back to Forward, latency, drop and
// truncation cleared. Connections already frozen or reset are not
// resurrected — clients re-dial, as they would after a real recovery.
func (p *Proxy) Heal() {
	p.latency.Store(0)
	p.dropEvery.Store(0)
	p.truncate.Store(-1)
	p.mode.Store(ModeForward)
}

// Close shuts the proxy down and severs every connection.
func (p *Proxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.ln.Close()
	p.KillConns()
	p.wg.Wait()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		down, err := p.ln.Accept()
		if err != nil {
			return
		}
		switch p.mode.Load() {
		case ModeRefuse:
			if tc, ok := down.(*net.TCPConn); ok {
				tc.SetLinger(0)
			}
			down.Close()
			continue
		case ModeBlackhole:
			// Hold the connection open and silent: the dial succeeded at
			// the TCP level, but no hello/response will ever come. The
			// register below lets KillConns/Close reap it.
			if !p.register(down) {
				down.Close()
				continue
			}
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				io.Copy(io.Discard, down)
				p.unregister(down)
				down.Close()
			}()
			continue
		}
		up, err := net.DialTimeout("tcp", p.target.Load().(string), 2*time.Second)
		if err != nil {
			down.Close()
			continue
		}
		if !p.register(down) || !p.register(up) {
			down.Close()
			up.Close()
			continue
		}
		p.wg.Add(2)
		go p.pipe(down, up)
		go p.pipe(up, down)
	}
}

func (p *Proxy) register(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) unregister(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	delete(p.frozen, c)
	p.mu.Unlock()
}

// pipe forwards src→dst one chunk at a time, consulting the fault state
// before each delivery. Closing either end tears both down.
func (p *Proxy) pipe(src, dst net.Conn) {
	defer p.wg.Done()
	defer func() {
		p.unregister(src)
		p.unregister(dst)
		src.Close()
		dst.Close()
	}()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if p.isFrozen(src) || p.isFrozen(dst) {
				continue // orphaned flow: bytes vanish, nothing closes
			}
			if !p.deliver(dst, buf[:n]) {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// deliver applies the active faults to one chunk and reports whether the
// connection should stay up.
func (p *Proxy) deliver(dst net.Conn, chunk []byte) bool {
	if d := p.latency.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	switch p.mode.Load() {
	case ModeBlackhole:
		// Swallow silently but keep reading: the sender's writes succeed
		// into the void, which is what a partition looks like until the
		// peer's read deadline fires.
		return true
	case ModeRefuse:
		return false
	}
	if every := p.dropEvery.Load(); every > 0 && p.dropCtr.Add(1)%every == 0 {
		return true // chunk vanishes; stream is now desynchronized
	}
	if budget := p.truncate.Load(); budget >= 0 {
		remaining := budget - int64(len(chunk))
		if remaining < 0 {
			remaining = 0
		}
		if !p.truncate.CompareAndSwap(budget, remaining) {
			// A concurrent deliver raced the budget; take the simple exit
			// and cut here — truncation only needs to be approximately
			// placed when two directions race, exact when one flows.
			return false
		}
		if int64(len(chunk)) > budget {
			dst.Write(chunk[:budget])
			return false
		}
	}
	_, err := dst.Write(chunk)
	return err == nil
}
