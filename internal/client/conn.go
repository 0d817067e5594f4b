// Package client is the Go client library for the Masstree server. It
// supports batched queries — many operations per network message — which §7
// shows is vital for throughput on small-operation workloads.
//
// Conn is the client: it is safe for concurrent use and keeps many tagged
// batches in flight on one connection, so neither side ever idles waiting
// for the other's round trip. Issue batches asynchronously with Go and
// collect them with Wait:
//
//	conn, err := client.DialConn(addr, client.WithWindow(16))
//	...
//	p1 := conn.Go(batch1) // sent; does not wait for the response
//	p2 := conn.Go(batch2) // pipelined behind batch1
//	resps1, err := p1.Wait()
//	...read resps1...
//	p1.Release() // recycle decode buffers; resps1 invalid after this
//	resps2, err := p2.Wait()
//	...
//
// Callers that do not pipeline use the synchronous faces, whose results own
// their memory: Do for a batch, Stats and StatsRaw, and the typed
// single-key calls of KV — Get, GetOrLoad, Put, PutSimple, PutTTL,
// PutSimpleTTL, Touch, CasPut, Remove, GetRange — which Conn embeds and
// cluster.Cluster embeds too, so both decode a status the same way. A Conn
// dialed WithWindow(1) holds one batch in flight at a time.
// Every get returns the value's version, and a CasPut applies only if the
// key's version still matches, enabling lock-free read-modify-write across
// the network.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Conn is a concurrency-safe pipelined connection to a server.
// Every request batch goes out in a tagged frame, so many batches can be in
// flight at once; the server answers in arrival order and echoes each tag,
// and a reader goroutine matches responses back to their callers. Use Go to
// issue a batch without blocking and Pending.Wait to collect it later:
//
//	p1 := conn.Go(batch1)          // in flight
//	p2 := conn.Go(batch2)          // also in flight — no round-trip wait
//	resps, err := p1.Wait()
//	...use resps...
//	p1.Release()                   // recycle the batch's decode buffers
//
// All methods are safe for concurrent use. The number of in-flight batches
// is bounded by the window (WithWindow); Go blocks when the window is full,
// which is what keeps slow servers from buffering unbounded requests.
//
// In steady state a Go/Wait/Release cycle allocates nothing on the client:
// frames encode into a connection-owned buffer, Pendings are recycled
// through a free list, and each Pending decodes responses into its own
// reusable scratch (which is why responses are only valid until Release).
type Conn struct {
	KV // the typed single-key calls, each one Do of one request

	nc net.Conn

	// timeout, when set (WithTimeout), is the per-batch I/O deadline: each
	// outgoing frame arms a write deadline, and the read side keeps a rolling
	// deadline armed while batches are in flight (cleared when the window
	// empties, so an idle connection never times out). A deadline firing is a
	// transport error: fail completes every in-flight Pending with it.
	timeout time.Duration

	wmu sync.Mutex // serializes frame encode+write across Go calls
	w   *bufio.Writer
	enc []byte // encode buffer, reused across Go calls (guarded by wmu)

	// slots bounds the in-flight window: Go acquires a slot, the reader
	// (or failure handling) releases it when the batch completes.
	slots chan struct{}

	// flushCh wakes the flusher goroutine after a Go buffered a frame.
	// Flushing out-of-line coalesces syscalls: while the flusher is inside
	// one Flush, any number of Go calls append to the buffered writer, and
	// the single pending signal (cap 1) flushes them all together. The
	// invariant is that a signal is sent only after its frame is fully
	// buffered under wmu, and the flusher takes wmu to flush, so every
	// buffered frame is covered by a flush that starts after it.
	flushCh chan struct{}

	mu      sync.Mutex
	pending map[uint32]*Pending // tag -> in-flight batch
	free    []*Pending          // recycled Pendings (with their scratch)
	nextTag uint32
	err     error // sticky transport error; set once, fails all later Gos

	readerDone chan struct{}
}

// Pending is one in-flight batch issued by Conn.Go. Exactly one Wait call
// must follow each Go; Release recycles the Pending (and the buffers its
// responses alias) for later Go calls.
//
//masstree:scratch
type Pending struct {
	c     *Conn
	tag   uint32
	nreq  int
	resps []wire.Response
	err   error
	dec   wire.RespDecodeBuf // per-Pending decode scratch; resps alias it
	done  chan struct{}      // cap 1; one signal per Go

	// state arbitrates completion against WaitCtx abandonment: the completer
	// CASes inFlight→completed before signaling done, WaitCtx CASes
	// inFlight→abandoned when its context fires first. Whoever loses the race
	// defers to the winner: an abandoned Pending is recycled by the completer
	// (its caller is gone and must not touch it again), a completed one hands
	// its buffered signal to the departing WaitCtx.
	state atomic.Int32
}

const (
	pendingInFlight  = 0
	pendingCompleted = 1
	pendingAbandoned = 2
)

// complete delivers p's result to its waiter — or, if a WaitCtx already
// abandoned p, recycles it directly (the waiter returned and relinquished
// ownership; nobody else will Release it).
func (p *Pending) complete() {
	if p.state.CompareAndSwap(pendingInFlight, pendingCompleted) {
		p.done <- struct{}{}
		return
	}
	p.Release()
}

// DefaultWindow is the default bound on in-flight batches per Conn.
const DefaultWindow = 16

// maxRetainedScratch bounds the encode/decode scratch kept between batches;
// one oversized batch does not pin its footprint for the connection's
// lifetime.
const maxRetainedScratch = 1 << 20

var errConnClosed = errors.New("client: connection closed")

// ConnOption configures DialConn.
type ConnOption func(*connConfig)

type connConfig struct {
	window      int
	timeout     time.Duration
	dialTimeout time.Duration
}

// WithTimeout arms a per-batch I/O deadline: a frame that cannot be written
// within d, or a response the server does not produce within d of the last
// send or receive, fails the connection — and with it every in-flight
// Pending, each completed with the same transport error. Zero (the default)
// means no deadline: a dead peer is only detected when the kernel gives up
// the connection. An idle connection (empty window) never times out.
func WithTimeout(d time.Duration) ConnOption {
	return func(c *connConfig) {
		if d > 0 {
			c.timeout = d
		}
	}
}

// WithDialTimeout bounds connection establishment: the TCP connect AND the
// hello exchange together must finish within d, or DialConn fails. Without
// it, an address that accepts the TCP handshake but never answers the hello
// — a blackholed route, a partitioned host, a frozen process — hangs
// DialConn indefinitely, which in a cluster means one dead node can wedge
// construction or a reconnect probe forever. Zero (the default) preserves
// the old behavior: only the OS connect timeout applies and the hello wait
// is unbounded.
func WithDialTimeout(d time.Duration) ConnOption {
	return func(c *connConfig) {
		if d > 0 {
			c.dialTimeout = d
		}
	}
}

// WithWindow bounds the number of batches in flight at once (>= 1). Window
// 1 is the blocking one-frame-at-a-time discipline, which makes it the
// natural baseline for pipelining benchmarks.
func WithWindow(n int) ConnOption {
	return func(c *connConfig) {
		if n > 0 {
			c.window = n
		}
	}
}

// DialConn connects to a server and exchanges hellos with it. It fails if
// the server does not answer with a hello accepting Version2.
func DialConn(addr string, opts ...ConnOption) (*Conn, error) {
	cfg := connConfig{window: DefaultWindow}
	for _, o := range opts {
		o(&cfg)
	}
	d := net.Dialer{Timeout: cfg.dialTimeout}
	nc, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	if cfg.dialTimeout > 0 {
		// The deadline covers the hello exchange too: a peer that accepts
		// the TCP handshake but never speaks (blackholed proxy, frozen
		// process) must fail DialConn within the dial budget, not hang it.
		nc.SetDeadline(time.Now().Add(cfg.dialTimeout))
	}
	w := bufio.NewWriterSize(nc, 1<<16)
	r := bufio.NewReaderSize(nc, 1<<16)
	if err := wire.WriteHello(w, wire.Version2); err == nil {
		err = w.Flush()
	}
	if err != nil {
		nc.Close()
		return nil, err
	}
	ver, err := wire.ReadHello(r)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: hello: %w", err)
	}
	if cfg.dialTimeout > 0 {
		nc.SetDeadline(time.Time{}) // handshake done; per-batch deadlines take over
	}
	if ver != wire.Version2 {
		nc.Close()
		return nil, fmt.Errorf("client: server accepted protocol %d, need %d", ver, wire.Version2)
	}
	c := &Conn{
		nc:         nc,
		timeout:    cfg.timeout,
		w:          w,
		slots:      make(chan struct{}, cfg.window),
		flushCh:    make(chan struct{}, 1),
		pending:    make(map[uint32]*Pending, cfg.window),
		readerDone: make(chan struct{}),
	}
	c.KV = NewKV(c.one)
	go c.readLoop(r)
	go c.flushLoop()
	return c, nil
}

// flushLoop pushes buffered frames to the kernel; see flushCh. It exits
// with the reader (whose shutdown implies no response will ever need
// another flush).
func (c *Conn) flushLoop() {
	for {
		select {
		case <-c.flushCh:
			c.wmu.Lock()
			if c.timeout > 0 {
				c.nc.SetWriteDeadline(time.Now().Add(c.timeout))
			}
			err := c.w.Flush()
			c.wmu.Unlock()
			if err != nil {
				c.fail(err)
			}
		case <-c.readerDone:
			return
		}
	}
}

// Go sends one request batch and returns immediately with a Pending for its
// responses. It blocks only while the in-flight window is full. The reqs
// slice and its contents are fully encoded before Go returns and may be
// reused by the caller immediately.
func (c *Conn) Go(reqs []wire.Request) *Pending {
	c.slots <- struct{}{}
	c.mu.Lock()
	p := c.takePending()
	p.nreq = len(reqs)
	if c.err != nil {
		p.err = c.err
		c.mu.Unlock()
		<-c.slots
		p.complete()
		return p
	}
	p.tag = c.nextTag
	c.nextTag++
	c.pending[p.tag] = p
	if c.timeout > 0 {
		// Roll the read deadline forward under c.mu: the reader adjusts it
		// under the same lock, so its clear-on-idle can never erase a
		// deadline armed for a batch it has not yet seen registered.
		c.nc.SetReadDeadline(time.Now().Add(c.timeout))
	}
	c.mu.Unlock()

	c.wmu.Lock()
	b, encErr := wire.AppendTaggedRequests(c.enc[:0], p.tag, reqs)
	var werr error
	if encErr == nil {
		if c.timeout > 0 {
			// A frame larger than the buffer writes through to the socket
			// here rather than in the flusher.
			c.nc.SetWriteDeadline(time.Now().Add(c.timeout))
		}
		_, werr = c.w.Write(b)
	}
	if cap(b) <= maxRetainedScratch {
		c.enc = b[:0]
	} else {
		c.enc = nil
	}
	c.wmu.Unlock()
	if encErr != nil {
		// Nothing reached the wire: this batch alone is unsendable (e.g.
		// it encodes past MaxMessage), the connection is still healthy.
		// Complete just this Pending — unless a concurrent transport
		// failure got to it first (completion belongs to whoever removes
		// it from the pending map).
		c.mu.Lock()
		_, mine := c.pending[p.tag]
		delete(c.pending, p.tag)
		c.mu.Unlock()
		if mine {
			p.err = encErr
			<-c.slots
			p.complete()
		}
		return p
	}
	if werr != nil {
		// p is registered, so fail covers it (and everything else in
		// flight) exactly once.
		c.fail(werr)
		return p
	}
	// Hand the actual syscall to the flusher; a signal already pending
	// covers this frame too (the flusher flushes after taking wmu, which
	// orders it behind the Write above).
	select {
	case c.flushCh <- struct{}{}:
	default:
	}
	return p
}

// takePending pops a recycled Pending or builds a fresh one. Caller holds
// c.mu.
func (c *Conn) takePending() *Pending {
	if n := len(c.free); n > 0 {
		p := c.free[n-1]
		c.free = c.free[:n-1]
		p.resps, p.err = nil, nil
		p.state.Store(pendingInFlight)
		return p
	}
	return &Pending{c: c, done: make(chan struct{}, 1)}
}

// readLoop owns the read half: it matches each tagged response frame to its
// Pending, decodes into that Pending's scratch, and completes it. Any
// transport or protocol error fails every in-flight batch and ends the
// connection.
func (c *Conn) readLoop(r *bufio.Reader) {
	defer close(c.readerDone)
	for {
		tag, n, err := wire.ReadTaggedHeader(r)
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		p := c.pending[tag]
		delete(c.pending, tag)
		c.mu.Unlock()
		if p == nil {
			c.fail(fmt.Errorf("client: response for unknown tag %d", tag))
			return
		}
		p.dec.Shrink(maxRetainedScratch)
		resps, err := wire.ReadTaggedResponseBody(r, n, &p.dec)
		if err == nil && len(resps) != p.nreq {
			err = fmt.Errorf("client: %d responses for %d requests", len(resps), p.nreq)
		}
		if c.timeout > 0 {
			// Reset the rolling read deadline now that a full frame arrived:
			// extend it while batches remain in flight, clear it when the
			// window empties (an idle connection must not time out). Under
			// c.mu so a racing Go's arm-on-register cannot be erased.
			c.mu.Lock()
			if len(c.pending) == 0 {
				c.nc.SetReadDeadline(time.Time{})
			} else {
				c.nc.SetReadDeadline(time.Now().Add(c.timeout))
			}
			c.mu.Unlock()
		}
		p.resps, p.err = resps, err
		<-c.slots
		p.complete()
		if err != nil {
			c.fail(err)
			return
		}
	}
}

// fail records the connection's first error and completes every in-flight
// Pending with it. Safe to call from both the writer (Go) and reader sides;
// each Pending is completed exactly once because completion requires
// removing it from the pending map under c.mu.
func (c *Conn) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	err = c.err
	failed := make([]*Pending, 0, len(c.pending))
	for tag, p := range c.pending {
		delete(c.pending, tag)
		failed = append(failed, p)
	}
	c.mu.Unlock()
	for _, p := range failed {
		p.resps, p.err = nil, err
		<-c.slots
		p.complete()
	}
}

// Wait blocks until the batch's responses arrive and returns them in
// request order. The responses (and every slice they reference) alias the
// Pending's reusable scratch: they are valid until Release. Call Wait
// exactly once per Go.
func (p *Pending) Wait() ([]wire.Response, error) {
	<-p.done
	return p.resps, p.err
}

// WaitCtx is Wait with an escape hatch: if ctx fires before the batch
// completes, it returns ctx's error and ownership of p transfers to the
// connection — the caller must NOT use p (no Release, no second Wait)
// afterwards; the connection recycles it when the response (or the
// connection's failure) eventually arrives. The request itself is not
// cancelled — it still occupies its window slot and executes on the server;
// WaitCtx only stops this caller from parking on it. A batch abandoned this
// way still counts against the window until it completes.
func (p *Pending) WaitCtx(ctx context.Context) ([]wire.Response, error) {
	select {
	case <-p.done:
		return p.resps, p.err
	case <-ctx.Done():
	}
	if p.state.CompareAndSwap(pendingInFlight, pendingAbandoned) {
		return nil, ctx.Err()
	}
	// The completer won the race: its signal is (or is about to be) in the
	// channel, so collect the result after all.
	<-p.done
	return p.resps, p.err
}

// Release recycles p for future Go calls on the same connection. The
// responses returned by Wait (and everything they reference) are invalid
// afterwards.
func (p *Pending) Release() {
	c := p.c
	p.resps = nil
	c.mu.Lock()
	c.free = append(c.free, p)
	c.mu.Unlock()
}

// Close tears the connection down, failing any in-flight batches with an
// error, and waits for the reader to exit.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.err == nil {
		c.err = errConnClosed
	}
	c.mu.Unlock()
	err := c.nc.Close()
	<-c.readerDone
	return err
}

// Do executes one batch and blocks for its responses — Go plus Wait for
// callers that don't pipeline. The returned responses own their memory and
// may be retained.
func (c *Conn) Do(reqs []wire.Request) ([]wire.Response, error) {
	p := c.Go(reqs)
	resps, err := p.Wait()
	if err != nil {
		p.Release()
		return nil, err
	}
	out := cloneResponses(resps)
	p.Release()
	return out, nil
}

// one executes a single request for the embedded KV; its response owns
// its memory.
func (c *Conn) one(req wire.Request) (wire.Response, error) {
	resps, err := c.Do([]wire.Request{req})
	if err != nil {
		return wire.Response{}, err
	}
	return resps[0], nil
}

// Stats returns the server's numeric metrics. Non-numeric metrics (e.g.
// flush_last_error, which carries an error string) are skipped; use
// StatsRaw to see everything.
func (c *Conn) Stats() (map[string]int64, error) {
	raw, err := c.StatsRaw()
	if err != nil {
		return nil, err
	}
	return numericStats(raw), nil
}

// StatsRaw returns every metric the server reports, verbatim, including
// non-numeric ones like flush_last_error.
func (c *Conn) StatsRaw() (map[string]string, error) {
	p := c.Go([]wire.Request{{Op: wire.OpStats}})
	resps, err := p.Wait()
	if err != nil {
		p.Release()
		return nil, err
	}
	out := make(map[string]string, len(resps[0].Pairs))
	for _, pair := range resps[0].Pairs {
		out[string(pair.Key)] = string(pair.Cols[0])
	}
	p.Release()
	return out, nil
}

// numericStats filters a raw stats map down to its parseable values.
func numericStats(raw map[string]string) map[string]int64 {
	out := make(map[string]int64, len(raw))
	for k, v := range raw {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			out[k] = n
		}
	}
	return out
}

// cloneCols deep-copies a column set out of reusable decode scratch.
func cloneCols(cols [][]byte) [][]byte {
	if cols == nil {
		return nil
	}
	out := make([][]byte, len(cols))
	for i, c := range cols {
		out[i] = append([]byte(nil), c...)
	}
	return out
}

// clonePairs deep-copies range-query pairs out of reusable decode scratch.
func clonePairs(pairs []wire.Pair) []wire.Pair {
	if pairs == nil {
		return nil
	}
	out := make([]wire.Pair, len(pairs))
	for i, p := range pairs {
		out[i] = wire.Pair{Key: append([]byte(nil), p.Key...), Cols: cloneCols(p.Cols)}
	}
	return out
}

// cloneResponses deep-copies a response batch out of reusable decode
// scratch, for the blocking wrappers whose results may be retained.
func cloneResponses(resps []wire.Response) []wire.Response {
	out := make([]wire.Response, len(resps))
	for i, r := range resps {
		out[i] = wire.Response{
			Status:  r.Status,
			Version: r.Version,
			Cols:    cloneCols(r.Cols),
			Pairs:   clonePairs(r.Pairs),
		}
	}
	return out
}
