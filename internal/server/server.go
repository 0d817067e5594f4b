// Package server implements the Masstree network server (§5): a TCP
// listener whose per-connection goroutines execute batched queries against
// the store. The paper's benchmarks use long-lived TCP query connections
// from few clients or client aggregators, "a common operating mode that is
// equally effective at avoiding network overhead"; batching many queries per
// message amortizes network and syscall costs.
//
// Connections speak protocol v1 or v2 (see internal/wire): the first bytes
// either begin a hello frame negotiating v2 or a v1 length header, so
// legacy clients work verbatim. A v1 connection executes one frame at a
// time in its goroutine. A v2 connection is served by a reader → executor →
// writer pipeline: tagged frames cycle through a small ring of connScratch
// buffers over bounded channels, so decoding frame N+1 overlaps executing
// frame N and writing back frame N−1 while single-executor FIFO order
// preserves per-connection response order by tag. Combined with a
// pipelining client (many tagged frames in flight), neither side ever
// stalls on the other's round trip.
//
// Execution is batch-aware, and the unit of batching is the frame's stretch
// of point operations, not a run of one opcode: a maximal stretch of OpGet
// and OpPut requests within one message, in any mix, is one segment served
// through Session.PointBatchInto — one epoch pin, one wave in which every
// key's next node is being fetched while the others take their hop (§4.8's
// PALM-style batching), the gets answered from it, the puts applied from the
// borders it found under shared border-node locks inside one log window. A
// run of consecutive OpGetRange requests goes through
// Session.GetRangeBatchInto, which starts each of its scans at a border that
// is already in cache. Every other opcode is a barrier, executed alone.
// Operations of one segment on different keys take effect in no particular
// order; operations on one key take effect in frame order (see
// kvstore.Store.PointBatchInto and the wire package comment).
// The request path is built for steady-state zero allocation: each
// connection owns a connScratch whose wire decode buffers, response slice,
// and column/pair/range arenas are retained across messages, and decoded
// requests alias the frame body rather than copying it. Put data is not
// copied or converted either — a decoded request's Puts are the store's own
// put elements (wire.ColData is value.ColPut), and the store copies them
// into the packed value and the log buffer — so a put's only steady-state
// allocation is the value itself.
//
// Each connection is bound to a worker id (round-robin), which selects the
// log its puts append to — the paper's per-core logs mapped onto Go's
// scheduler.
package server

import (
	"bufio"
	"context"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kvstore"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Server serves a kvstore over TCP.
type Server struct {
	store *kvstore.Store
	obs   *obs.Registry // the store's registry; nil when observability is off
	ln    net.Listener

	nextWorker atomic.Int64
	workers    int

	// batchedGets and batchedPuts count the OpGet and OpPut requests served
	// as part of a point segment, through Session.PointBatchInto (exported
	// as the "batched_gets" and "batched_puts" stats), batchedScans the
	// OpGetRange requests served through Session.GetRangeBatchInto
	// ("batched_scans"). erroredRequests counts
	// requests answered with StatusError because they could not be decoded
	// or executed — a malformed request inside a decodable frame fails alone
	// instead of killing its connection ("errored_requests").
	batchedGets     atomic.Int64
	batchedPuts     atomic.Int64
	batchedScans    atomic.Int64
	erroredRequests atomic.Int64

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	udp   []*udpListener
	wg    sync.WaitGroup
	done  atomic.Bool
}

// New creates a server for store with the given number of logical workers
// (log streams). workers <= 0 defaults to 1.
func New(store *kvstore.Store, workers int) *Server {
	if workers <= 0 {
		workers = 1
	}
	return &Server{store: store, obs: store.Obs(), workers: workers, conns: map[net.Conn]struct{}{}}
}

// Listen starts accepting connections on addr ("host:port"; ":0" picks a
// free port). It returns immediately; Addr reports the bound address.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the listener's address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		s.mu.Lock()
		if s.done.Load() {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		worker := int(s.nextWorker.Add(1)-1) % s.workers
		s.wg.Add(1)
		go s.serveConn(conn, worker)
	}
}

// connScratch is one connection's reusable execution state. Every buffer is
// retained across messages, so a connection in steady state allocates only
// the packed values its puts publish and responses that outgrow every
// previous message.
//
//masstree:scratch
type connScratch struct {
	dec     wire.DecodeBuf       // request decode buffers; requests alias the frame
	enc     []byte               // response encode buffer
	resps   []wire.Response      // response slice, one per request
	cols    [][]byte             // arena backing Response.Cols for this message
	keys    [][]byte             // key slice handed to batched session calls
	isPut   []bool               // a point segment's kinds, handed to PointBatchInto
	putRuns [][]wire.ColData     // each request's Puts, handed to PointBatchInto
	ns      []int                // each request's N, handed to GetRangeBatchInto
	colSets [][]int              // each request's Cols, handed to GetRangeBatchInto
	pairs   []wire.Pair          // arena backing Response.Pairs for this message
	rng     kvstore.RangeScratch // arenas behind Session.GetRangeInto

	// v2 pipeline state: the frame's tag, its decoded requests (aliasing
	// dec), and the claimed batch size (> len(reqs) when a decodable frame
	// held undecodable requests; the tail is answered with StatusError).
	tag     uint32
	reqs    []wire.Request
	claimed int
}

// minBatchRun is the shortest point segment or scan run routed through a
// batched path; a single get, put or scan has no other descent to overlap
// its misses with.
const minBatchRun = 2

// maxRetainedScratch bounds how much scratch one connection keeps between
// messages: buffers grown past this by an unusually large message are
// released afterwards rather than pinned for the connection's lifetime.
const maxRetainedScratch = 1 << 20

// shrink releases oversized buffers after a message has been encoded.
func (sc *connScratch) shrink() {
	sc.dec.Shrink(maxRetainedScratch)
	if cap(sc.enc) > maxRetainedScratch {
		sc.enc = nil
	}
	if cap(sc.resps)*64 > maxRetainedScratch { // ~sizeof(wire.Response)
		sc.resps = nil
	}
	if cap(sc.cols)*24 > maxRetainedScratch {
		sc.cols = nil
	}
	if cap(sc.keys)*24 > maxRetainedScratch {
		sc.keys = nil
	}
	if cap(sc.isPut) > maxRetainedScratch {
		sc.isPut = nil
	}
	if cap(sc.putRuns)*24 > maxRetainedScratch {
		sc.putRuns = nil
	}
	if cap(sc.ns)*8 > maxRetainedScratch {
		sc.ns = nil
	}
	if cap(sc.colSets)*24 > maxRetainedScratch {
		sc.colSets = nil
	}
	if cap(sc.pairs)*48 > maxRetainedScratch {
		sc.pairs = nil
	}
	sc.rng.Shrink(maxRetainedScratch)
}

func (s *Server) serveConn(conn net.Conn, worker int) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	sess := s.store.Session(worker)
	defer sess.Close()
	r := bufio.NewReaderSize(conn, 1<<16)
	w := bufio.NewWriterSize(conn, 1<<16)
	// The connection's first bytes either begin a hello frame (negotiate
	// v2) or a v1 length header (legacy client, served verbatim).
	first, err := r.Peek(4)
	if err != nil {
		return
	}
	if !wire.IsHelloPrefix(first) {
		s.serveV1(sess, r, w)
		return
	}
	ver, err := wire.ReadHello(r)
	if err != nil || ver < wire.Version2 {
		// Version2 is the oldest hello-negotiated version (v1 clients send
		// no hello), so a lower proposal is a protocol violation: drop the
		// connection rather than answer with a version the sender could
		// not speak (see the wire package comment).
		return
	}
	if err := wire.WriteHello(w, wire.Version2); err != nil {
		return
	}
	if err := w.Flush(); err != nil {
		return
	}
	s.serveV2(conn, sess, r, w)
}

// serveV1 executes one frame at a time: the v1 protocol allows a single
// batch in flight, so the read, execute, and write phases simply alternate
// in this goroutine.
func (s *Server) serveV1(sess *kvstore.Session, r *bufio.Reader, w *bufio.Writer) {
	sc := &connScratch{}
	for {
		body, err := wire.ReadRequestBody(r, &sc.dec)
		if err != nil {
			// EOF and friends are orderly shutdown; anything else is a
			// framing error. Either way, drop the connection.
			return
		}
		reqs, claimed, err := wire.ParseRequestsLenient(body, &sc.dec)
		if err != nil {
			// The frame itself cannot be trusted (forged count, trailing
			// bytes): no per-request recovery is possible.
			return
		}
		s.executeBatch(sess, reqs, claimed, sc, false)
		if err := wire.WriteResponsesInto(w, sc.resps, &sc.enc); err != nil {
			return
		}
		sc.shrink()
	}
}

// v2PipelineDepth is the number of connScratch buffers a v2 connection
// cycles through its reader → executor → writer stages — one frame being
// decoded, one executing, one being written back. More depth buys nothing:
// the pipeline has three stages, and in-flight frames beyond it queue in
// the kernel socket buffers.
const v2PipelineDepth = 4

// serveV2 runs the pipelined protocol: a reader goroutine decodes tagged
// frames, this executor goroutine executes them, and a writer goroutine
// streams the encoded responses back. Stages hand connScratch buffers
// around over bounded channels (the scratch ring doubles as flow control),
// so decoding frame N+1 overlaps executing frame N and writing frame N−1.
// FIFO channels and the single executor preserve response order by tag.
//
// The executor runs in serveConn's goroutine: it is the stage that touches
// the store, so server shutdown (which waits on serveConn via s.wg) cannot
// return while a request still executes.
func (s *Server) serveV2(conn net.Conn, sess *kvstore.Session, r *bufio.Reader, w *bufio.Writer) {
	free := make(chan *connScratch, v2PipelineDepth)
	for i := 0; i < v2PipelineDepth; i++ {
		free <- &connScratch{}
	}
	decoded := make(chan *connScratch, v2PipelineDepth)
	executed := make(chan *connScratch, v2PipelineDepth)

	var pipeWG sync.WaitGroup
	pipeWG.Add(2)
	// Reader: frame in, requests decoded (aliasing the scratch), tag noted.
	go func() {
		defer pipeWG.Done()
		defer close(decoded)
		for {
			sc := <-free
			tag, n, err := wire.ReadTaggedHeader(r)
			if err != nil {
				return
			}
			body, err := wire.ReadTaggedRequestBody(r, n, &sc.dec)
			if err != nil {
				return
			}
			reqs, claimed, err := wire.ParseRequestsLenient(body, &sc.dec)
			if err != nil {
				return
			}
			sc.tag, sc.reqs, sc.claimed = tag, reqs, claimed
			decoded <- sc
		}
	}()
	// Writer: encodes each executed batch (the responses alias the
	// scratch's arenas, which stay untouched until the scratch is recycled)
	// and streams it out, recycling scratches to the reader. Encoding here
	// rather than in the executor balances the pipeline: executing frame
	// N+1 overlaps encoding and writing frame N. On an error it keeps
	// draining (so the executor never blocks) with the connection closed,
	// which unsticks the reader.
	go func() {
		defer pipeWG.Done()
		failed := false
		for sc := range executed {
			if !failed {
				b, err := wire.AppendTaggedResponses(sc.enc[:0], sc.tag, sc.resps)
				if err != nil {
					// Response exceeds the frame bound: unanswerable; drop
					// the connection like the v1 path would.
					failed = true
					conn.Close()
				} else {
					sc.enc = b
					if _, err := w.Write(sc.enc); err != nil {
						failed = true
						conn.Close()
					} else if len(executed) == 0 {
						// Nothing queued behind us: push the batch to the
						// client now instead of waiting for more frames.
						if err := w.Flush(); err != nil {
							failed = true
							conn.Close()
						}
					}
				}
			}
			sc.shrink()
			free <- sc
		}
	}()
	// Executor (this goroutine): runs decoded requests against the store.
	for sc := range decoded {
		s.executeBatch(sess, sc.reqs, sc.claimed, sc, true)
		executed <- sc
	}
	close(executed)
	pipeWG.Wait()
}

// executeBatch fills sc.resps with one response per request — claimed of
// them, where claimed >= len(reqs): a decodable frame whose tail could not
// be decoded (unknown opcode, truncated payload) still gets a full batch of
// responses, the undecodable suffix answered with StatusError, so one bad
// request fails alone instead of killing the connection mid-batch. The frame
// is cut into segments (see segmentOf): a maximal stretch of OpGets and
// OpPuts is served as one point run, a maximal run of OpGetRanges as one scan
// run, when at least minBatchRun long; everything else executes one at a
// time. ttlOK admits the cache-mode operations
// (OpPutTTL/OpTouch/OpGetOrLoad), which are v2 surface: the v1 and UDP paths
// answer them with StatusError, leaving v1 semantics untouched.
func (s *Server) executeBatch(sess *kvstore.Session, reqs []wire.Request, claimed int, sc *connScratch, ttlOK bool) {
	if claimed < len(reqs) {
		claimed = len(reqs)
	}
	if cap(sc.resps) < claimed {
		sc.resps = make([]wire.Response, claimed)
	}
	sc.resps = sc.resps[:claimed]
	sc.cols = sc.cols[:0]
	sc.pairs = sc.pairs[:0]
	sc.rng.Reset()
	for i := 0; i < len(reqs); {
		seg := segmentOf(reqs[i].Op)
		j := i + 1
		for seg != segSingle && j < len(reqs) && segmentOf(reqs[j].Op) == seg {
			j++
		}
		switch {
		case j-i < minBatchRun:
			for k := i; k < j; k++ {
				sc.resps[k] = s.execute(sess, &reqs[k], sc, ttlOK)
			}
		case seg == segPoint:
			s.executePointRun(sess, reqs[i:j], sc.resps[i:j], sc)
		default:
			s.executeScanRun(sess, reqs[i:j], sc.resps[i:j], sc)
		}
		i = j
	}
	for i := len(reqs); i < claimed; i++ {
		sc.resps[i] = wire.Response{Status: wire.StatusError}
	}
	if claimed > len(reqs) {
		s.erroredRequests.Add(int64(claimed - len(reqs)))
	}
}

// A segment is a stretch of a frame's requests that one batched store call
// can serve.
type segment uint8

const (
	segSingle segment = iota // a barrier: executed alone, in its place
	segPoint                 // gets and puts, in any mix
	segScan                  // range scans
)

func segmentOf(op wire.OpCode) segment {
	switch op {
	case wire.OpGet, wire.OpPut:
		return segPoint
	case wire.OpGetRange:
		return segScan
	}
	return segSingle
}

// executePointRun serves a stretch of OpGet and OpPut requests through
// Session.PointBatchInto (§4.8, for reads and writes at once): every key
// descends in one wave, the gets are answered from it, and the puts are
// applied from the borders it found — co-located keys under one border-node
// lock acquisition, all log records encoded under one log-buffer lock.
// Response columns are appended to sc.cols, a per-message arena. The decoded
// put data still aliases the frame — the store copies it into the packed
// value and the log, so no per-put copy is made here. The whole stretch lands
// as one observation, in the get_batch histogram if it holds no put and in
// put_batch otherwise: the stretch is the unit the batched path amortizes
// over, and a single time.Now pair per stretch keeps the instrumentation off
// the per-key path.
func (s *Server) executePointRun(sess *kvstore.Session, reqs []wire.Request, resps []wire.Response, sc *connScratch) {
	var runStart time.Time
	if s.obs != nil {
		runStart = time.Now()
	}
	sc.keys, sc.isPut, sc.putRuns = sc.keys[:0], sc.isPut[:0], sc.putRuns[:0]
	nputs := 0
	for i := range reqs {
		put := reqs[i].Op == wire.OpPut
		if put {
			nputs++
		}
		sc.keys = append(sc.keys, reqs[i].Key)
		sc.isPut = append(sc.isPut, put)
		sc.putRuns = append(sc.putRuns, reqs[i].Puts)
	}
	vals, found, vers := sess.PointBatchInto(sc.keys, sc.isPut, sc.putRuns)
	s.batchedGets.Add(int64(len(reqs) - nputs))
	s.batchedPuts.Add(int64(nputs))
	for i := range reqs {
		switch {
		case sc.isPut[i]:
			resps[i] = wire.Response{Status: wire.StatusOK, Version: vers[i]}
		case !found[i]:
			resps[i] = wire.Response{Status: wire.StatusNotFound}
		default:
			start := len(sc.cols)
			sc.cols = kvstore.AppendCols(sc.cols, vals[i], reqs[i].Cols)
			resps[i] = wire.Response{Status: wire.StatusOK, Version: vals[i].Version(),
				Cols: sc.cols[start:len(sc.cols):len(sc.cols)]}
		}
	}
	if s.obs != nil {
		hist := obs.HGetBatch
		if nputs > 0 {
			hist = obs.HPutBatch
		}
		s.obs.Hist(hist).Record(sess.Worker(), time.Since(runStart))
	}
}

// executeScanRun serves a run of OpGetRange requests through
// Session.GetRangeBatchInto: the start keys descend together, then each scan
// runs as it would alone. The run is timed once and lands in the scan
// histogram as one observation per scan, each of the run's mean: lat_scan
// stays a per-scan latency whichever path served it.
func (s *Server) executeScanRun(sess *kvstore.Session, reqs []wire.Request, resps []wire.Response, sc *connScratch) {
	var runStart time.Time
	if s.obs != nil {
		runStart = time.Now()
	}
	sc.keys, sc.ns, sc.colSets = sc.keys[:0], sc.ns[:0], sc.colSets[:0]
	for i := range reqs {
		sc.keys = append(sc.keys, reqs[i].Key)
		sc.ns = append(sc.ns, reqs[i].N)
		sc.colSets = append(sc.colSets, reqs[i].Cols)
	}
	for i, pairs := range sess.GetRangeBatchInto(sc.keys, sc.ns, sc.colSets, &sc.rng) {
		resps[i] = sc.rangeResponse(pairs)
	}
	s.batchedScans.Add(int64(len(reqs)))
	if s.obs != nil {
		s.obs.Hist(obs.HScan).RecordN(sess.Worker(), time.Since(runStart)/time.Duration(len(reqs)), len(reqs))
	}
}

// rangeResponse answers one range query with pairs, which alias the
// connection's range arenas (keys, columns, pairs all reused across
// messages) until the response is encoded.
func (sc *connScratch) rangeResponse(pairs []kvstore.Pair) wire.Response {
	start := len(sc.pairs)
	for _, p := range pairs {
		sc.pairs = append(sc.pairs, wire.Pair{Key: p.Key, Cols: p.Cols})
	}
	return wire.Response{Status: wire.StatusOK, Pairs: sc.pairs[start:len(sc.pairs):len(sc.pairs)]}
}

// histForOp maps a wire op to its server-side latency histogram; ok is
// false for ops that are not timed (Stats itself, Remove, unknown ops).
// PutTTL and Touch fold into the put histogram: they take the same write
// path and the cardinality stays the v1 set the ISSUE names.
func histForOp(op wire.OpCode) (obs.HistID, bool) {
	switch op {
	case wire.OpGet:
		return obs.HGet, true
	case wire.OpPut, wire.OpPutTTL, wire.OpTouch:
		return obs.HPut, true
	case wire.OpCas:
		return obs.HCas, true
	case wire.OpGetOrLoad:
		return obs.HGetOrLoad, true
	case wire.OpGetRange:
		return obs.HScan, true
	}
	return 0, false
}

// execute serves one request, timing it into the op's latency histogram.
// Responses may alias sc's arenas and the request's frame buffer; they are
// valid until the next message.
func (s *Server) execute(sess *kvstore.Session, r *wire.Request, sc *connScratch, ttlOK bool) wire.Response {
	if s.obs != nil {
		if id, ok := histForOp(r.Op); ok {
			start := time.Now()
			resp := s.executeOp(sess, r, sc, ttlOK)
			s.obs.Hist(id).Record(sess.Worker(), time.Since(start))
			return resp
		}
	}
	return s.executeOp(sess, r, sc, ttlOK)
}

func (s *Server) executeOp(sess *kvstore.Session, r *wire.Request, sc *connScratch, ttlOK bool) wire.Response {
	switch r.Op {
	case wire.OpGet:
		// Gets report the value's version so clients can chain OpCas off a
		// read (versioned read-modify-write).
		v, ok := sess.GetValue(r.Key)
		if !ok {
			return wire.Response{Status: wire.StatusNotFound}
		}
		start := len(sc.cols)
		sc.cols = kvstore.AppendCols(sc.cols, v, r.Cols)
		return wire.Response{Status: wire.StatusOK, Version: v.Version(),
			Cols: sc.cols[start:len(sc.cols):len(sc.cols)]}
	case wire.OpPut, wire.OpCas, wire.OpPutTTL, wire.OpTouch:
		return s.executeWrite(sess, r, ttlOK)
	case wire.OpGetOrLoad:
		// Read-through get (v2 surface, like the TTL ops): a miss consults
		// the store's backend tier, with concurrent misses for the same key
		// coalesced into one backend load. StatusStale marks a degraded
		// answer — an expired resident value served because the backend could
		// not be reached. A store without a backend (or a backend failure
		// with nothing resident) answers StatusError.
		if !ttlOK {
			s.erroredRequests.Add(1)
			return wire.Response{Status: wire.StatusError}
		}
		v, stale, err := sess.GetOrLoad(context.Background(), r.Key)
		if err != nil {
			s.erroredRequests.Add(1)
			return wire.Response{Status: wire.StatusError}
		}
		if v == nil {
			return wire.Response{Status: wire.StatusNotFound}
		}
		status := wire.StatusOK
		if stale {
			status = wire.StatusStale
		}
		start := len(sc.cols)
		sc.cols = kvstore.AppendCols(sc.cols, v, r.Cols)
		return wire.Response{Status: status, Version: v.Version(),
			Cols: sc.cols[start:len(sc.cols):len(sc.cols)]}
	case wire.OpRemove:
		if sess.Remove(r.Key) {
			return wire.Response{Status: wire.StatusOK}
		}
		return wire.Response{Status: wire.StatusNotFound}
	case wire.OpGetRange:
		return sc.rangeResponse(sess.GetRangeInto(r.Key, r.N, r.Cols, &sc.rng))
	case wire.OpStats:
		return s.statsResponse(ttlOK)
	default:
		return wire.Response{Status: wire.StatusError}
	}
}

// executeWrite serves the put family as one branch: the decoded request goes
// to the session's matching write entry point as it is (its put data aliases
// the connection's frame buffer; the store copies it into the packed value
// and the log buffer before returning) and every outcome is a status and a
// version. A declined write answers with what the client needs to retry: an
// OpCas whose ExpectVersion mismatched under the border lock is
// StatusConflict carrying the current version, an OpTouch of an absent or
// expired key StatusNotFound. The TTL forms are v2 surface (see executeBatch).
func (s *Server) executeWrite(sess *kvstore.Session, r *wire.Request, ttlOK bool) wire.Response {
	if !ttlOK && (r.Op == wire.OpPutTTL || r.Op == wire.OpTouch) {
		s.erroredRequests.Add(1)
		return wire.Response{Status: wire.StatusError}
	}
	var ver uint64
	ok, declined := true, wire.StatusNotFound
	switch r.Op {
	case wire.OpPut:
		ver = sess.Put(r.Key, r.Puts)
	case wire.OpCas:
		ver, ok = sess.CasPut(r.Key, r.ExpectVersion, r.Puts)
		declined = wire.StatusConflict
	case wire.OpPutTTL:
		ver = sess.PutTTL(r.Key, r.Puts, expiryFromTTL(r.TTL))
	case wire.OpTouch:
		ver, ok = sess.Touch(r.Key, expiryFromTTL(r.TTL))
	}
	if !ok {
		return wire.Response{Status: declined, Version: ver}
	}
	return wire.Response{Status: wire.StatusOK, Version: ver}
}

// expiryFromTTL converts wire TTL seconds into the store's absolute expiry
// deadline in unix nanoseconds (0 stays 0: never expires).
func expiryFromTTL(ttl uint32) uint64 {
	if ttl == 0 {
		return 0
	}
	return uint64(time.Now().UnixNano()) + uint64(ttl)*uint64(time.Second)
}

// statsResponse reports store size, tree operation counters, batching
// counters, cache-mode health, and logging health as metric name/value
// pairs. flush_errors is the count of failed log flushes (background group
// commits included); a non-zero value means acknowledged puts may not be
// durable — on v2 connections flush_last_error carries the most recent
// failure's text (the one non-numeric stat; it is withheld from v1 and UDP
// responses because pre-existing v1 clients parse every stat as an integer
// and would reject the whole response). flush_buffer_drops counts flushed
// log buffers released for outgrowing the writers' retain cap: zero while
// the flushers keep up, climbing when puts pay to regrow them. bytes_live
// is the accounted packed-value footprint; evictions, expirations,
// ghost_hits, and admit_drops are the cache-mode counters (zero unless
// MaxBytes/TTLs are in use).
func (s *Server) statsResponse(v2 bool) wire.Response {
	stats, _ := s.collectStats()
	pairs := make([]wire.Pair, 0, len(stats)+1)
	for _, m := range stats {
		pairs = append(pairs, wire.Pair{Key: []byte(m.Name),
			Cols: [][]byte{[]byte(strconv.FormatInt(m.Value, 10))}})
	}
	if v2 {
		if _, flushLast := s.store.FlushStats(); flushLast != nil {
			pairs = append(pairs, wire.Pair{Key: []byte("flush_last_error"),
				Cols: [][]byte{[]byte(flushLast.Error())}})
		}
	}
	return wire.Response{Status: wire.StatusOK, Pairs: pairs}
}

// collectStats gathers every numeric stat the server exports — store and
// tree counters, server batching counters, backend-tier health, and the
// histogram-derived latency keys — into one byte-wise sorted slice, along
// with the histogram snapshots the latency keys were derived from. The wire
// Stats op, /metrics, and /varz all render from this single collector, so
// the three surfaces cannot disagree about a key's meaning or its value's
// derivation; the returned snapshots let the admin handlers expose full
// bucket detail that provably matches the quantile keys.
func (s *Server) collectStats() ([]obs.Stat, []obs.HistSnapshot) {
	st := s.store.Stats()
	cs := s.store.CacheStats()
	flushErrs, _ := s.store.FlushStats()
	ls := s.store.LoaderStats()
	stats := []obs.Stat{
		{Name: "keys", Value: int64(s.store.Len())},
		{Name: "splits", Value: st.Splits},
		{Name: "layer_creations", Value: st.LayerCreations},
		{Name: "layer_collapses", Value: st.LayerCollapses},
		{Name: "node_deletes", Value: st.NodeDeletes},
		{Name: "root_retries", Value: st.RootRetries},
		{Name: "local_retries", Value: st.LocalRetries},
		{Name: "batch_fallbacks", Value: st.BatchFallbacks},
		{Name: "slot_reuses", Value: st.SlotReuses},
		{Name: "batched_gets", Value: s.batchedGets.Load()},
		{Name: "batched_puts", Value: s.batchedPuts.Load()},
		{Name: "batched_scans", Value: s.batchedScans.Load()},
		{Name: "errored_requests", Value: s.erroredRequests.Load()},
		{Name: "bytes_live", Value: cs.BytesLive},
		{Name: "max_bytes", Value: s.store.MaxBytes()},
		{Name: "evictions", Value: cs.Evictions},
		{Name: "expirations", Value: cs.Expirations},
		{Name: "ghost_hits", Value: cs.GhostHits},
		{Name: "admit_drops", Value: cs.AdmitDrops},
		{Name: "flush_buffer_drops", Value: s.store.LogBufferDrops()},
		{Name: "flush_errors", Value: flushErrs},
		{Name: "flush_retries", Value: s.store.FlushRetries()},
		{Name: "broken_chains", Value: s.store.RecoveryStats().BrokenChains},
		{Name: "missing_logs", Value: s.store.RecoveryStats().MissingLogs},
		// Backend-tier health (all numeric, so v1 clients that integer-parse
		// every stat stay happy): zero-valued when no backend is configured.
		{Name: "loads", Value: int64(ls.Loads)},
		{Name: "load_errors", Value: int64(ls.LoadErrors)},
		{Name: "herd_coalesced", Value: int64(ls.HerdCoalesced)},
		{Name: "stale_served", Value: int64(ls.StaleServed)},
		{Name: "negative_hits", Value: int64(ls.NegativeHits)},
		{Name: "breaker_state", Value: int64(ls.Backend.BreakerState)},
		{Name: "breaker_opens", Value: int64(ls.Backend.BreakerOpens)},
		{Name: "writebehind_depth", Value: int64(ls.WriteBehindDepth)},
		{Name: "writebehind_drops", Value: int64(ls.WriteBehindDrops)},
	}
	snaps := s.obs.Snapshots()
	for _, hs := range snaps {
		stats = obs.AppendStats(stats, hs)
	}
	obs.SortStats(stats)
	return stats, snaps
}

// Shutdown stops the server gracefully: it stops accepting, then gives
// in-flight connections up to timeout to finish and disconnect on their own
// (every frame already received keeps executing and its responses keep
// flowing back). Connections still alive when the budget lapses are
// force-closed — their unread frames are lost, which is why the return value
// matters: true means every connection drained cleanly, false means the
// drain timed out and clients may have seen mid-pipeline resets. Either way
// all handlers have exited when Shutdown returns. The store is not touched;
// the caller flushes/checkpoints it after the network is quiet.
func (s *Server) Shutdown(timeout time.Duration) bool {
	s.done.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Lock()
	for _, l := range s.udp {
		l.conn.Close() // datagram service has no drain: no connection state
	}
	s.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return true
	case <-time.After(timeout):
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	<-drained
	return false
}

// Close stops accepting, closes all connections and UDP sockets, and waits
// for handlers.
func (s *Server) Close() error {
	s.done.Store(true)
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	for _, l := range s.udp {
		l.conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}
