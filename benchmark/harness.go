package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/kvstore"
	"repro/internal/server"
	"repro/internal/wire"
)

// Fixed shape of every run (see README.md). nproc is 2 on the box this
// benchmark is judged on, so there are never more client goroutines or
// connections than that.
const (
	storeWorkers = 2
	numConns     = 2
	satWindow    = 4  // batches in flight per connection, saturated phase
	satBatch     = 16 // requests per batch, saturated phase
	ringLen      = 1 << 18
	checkEvery   = 16 // full content check on 1 response in 16
	dialTimeout  = 20 * time.Second
)

// plan is how one run spends its time; newPlan derives it from --seconds.
type plan struct {
	warm      time.Duration // discarded before each timed phase
	saturated time.Duration // numConns x satWindow x satBatch
	unloaded  time.Duration // 1 connection x window 1 x batch 1 (traced runs only)
	traced    time.Duration // saturated again, with spans (traced runs only)
	tail      int           // puts the restart section replays (traced runs only)
	reopens   int           // recover_s is the median of this many Opens
}

// newPlan spends --seconds on the saturated phase of an end-to-end run. A
// traced run splits them three ways — unloaded, saturated untraced,
// saturated traced, so trace.overhead compares like with like — and then
// runs the restart section.
func newPlan(seconds int, trace bool) plan {
	p := plan{warm: time.Second, saturated: time.Duration(seconds) * time.Second, tail: 500_000, reopens: 3}
	if trace {
		third := max((p.saturated / 3).Truncate(time.Second), time.Second)
		p.unloaded, p.saturated, p.traced = third, third, third
	}
	return p
}

// host is one process's worth of system under test: a durable store, a
// server on loopback TCP, and the client connections, plus the benchmark's
// own dataset and request rings.
type host struct {
	sp    spec
	dir   string
	store *kvstore.Store
	srv   *server.Server
	conns []*client.Conn
	data  *dataset
	rings [][]wire.Request

	heapPerKey float64 // store heap after load, per key
	genNsPerOp float64 // ring pre-generation cost (outside every timer)
}

func storeConfig(dir string) kvstore.Config {
	// Group flush at the paper's 200 ms default, no fsync, obs on, no cache
	// bound: the flush policy is part of the benchmark's contract.
	return kvstore.Config{Dir: dir, Workers: storeWorkers, SyncWrites: false, MaxBytes: 0}
}

func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setUp builds a host under root: generate the dataset, open the store, load
// it single-threaded, listen, dial, and pre-generate every request ring. The
// caller owns the returned host even on error (close removes the directory).
func setUp(sp spec, records int, seed int64, root string) (*host, error) {
	h := &host{sp: sp}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return h, err
	}
	dir, err := os.MkdirTemp(root, "bench-"+sp.name+"-")
	if err != nil {
		return h, err
	}
	h.dir = dir
	h.data = newDataset(sp, records, seed)
	base := heapAfterGC()
	if h.store, err = kvstore.Open(storeConfig(dir)); err != nil {
		return h, fmt.Errorf("open store: %w", err)
	}
	ss := h.store.Session(0)
	h.data.load(ss, seed)
	ss.Close()
	h.srv = server.New(h.store, storeWorkers)
	if err := h.srv.Listen("127.0.0.1:0"); err != nil {
		return h, fmt.Errorf("listen: %w", err)
	}
	for i := 0; i < numConns; i++ {
		c, err := client.DialConn(h.srv.Addr().String(),
			client.WithWindow(satWindow), client.WithDialTimeout(dialTimeout))
		if err != nil {
			return h, fmt.Errorf("dial: %w", err)
		}
		h.conns = append(h.conns, c)
	}
	// The rings are the benchmark's own memory: allocate them only after
	// the heap reading, so heap_bytes_per_key is the store's.
	h.heapPerKey = float64(heapAfterGC()-base) / float64(len(h.data.keys))
	genStart := time.Now()
	for i := 0; i < numConns; i++ {
		ring := make([]wire.Request, ringLen)
		sp.fill(h.data, subSeed(seed, streamRing+uint64(i)), ring)
		h.rings = append(h.rings, ring)
	}
	h.genNsPerOp = float64(time.Since(genStart).Nanoseconds()) / float64(numConns*ringLen)
	return h, nil
}

// closeNet stops the client connections and the server; the store stays
// open for the restart section.
func (h *host) closeNet() {
	for _, c := range h.conns {
		c.Close()
	}
	h.conns = nil
	if h.srv != nil {
		h.srv.Close()
		h.srv = nil
	}
}

// close tears everything down and removes the data directory. It runs on
// success and on failure: a saturated put-uniform run leaves >1 GB of log.
func (h *host) close() error {
	h.closeNet()
	var err error
	if h.store != nil {
		err = h.store.Close()
		h.store = nil
	}
	if h.dir != "" {
		err = errors.Join(err, os.RemoveAll(h.dir))
	}
	return err
}

// span is one traced interval: a call into a layer, or the batch that
// caused it. Spans of one batch share its id.
type span struct {
	kind       spanKind
	batch      uint32
	conn       uint8
	start, end int64 // ns since the phase or replay began
}

type spanKind uint8

const (
	spanBatch spanKind = iota
	spanClientGo
	spanClientWait
	spanReqEncode
	spanReqDecode
	spanStore
	spanRespEncode
	spanRespDecode
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"batch", "client.go", "client.wait",
	"wire.req_encode", "wire.req_decode", "kvstore.exec", "wire.resp_encode", "wire.resp_decode"}

// parent names the span that caused one of this kind: every call hangs off
// its batch.
func (k spanKind) parent() string {
	if k == spanBatch {
		return ""
	}
	return spanNames[spanBatch]
}

// connRecord is what one driver goroutine measured in one phase.
type connRecord struct {
	ops       []int64    // completed requests per slice
	lat       [][]uint32 // Go-to-Wait-return per batch, ns, per slice (shapes with lat set)
	attempted int64
	failed    int64
	firstErr  error
	spans     []span // traced phases only
}

// phaseResult is one closed-loop phase over one or more connections.
type phaseResult struct {
	slice     time.Duration
	measure   time.Time   // end of the warm-up: slice 0 starts here
	gcEnds    []time.Time // GC cycle ends (mark termination) the phase saw
	conns     []*connRecord
	attempted int64
	failed    int64
	firstErr  error
}

// sliceOps sums the connections' completed requests per slice.
func (r *phaseResult) sliceOps() []int64 {
	out := make([]int64, len(r.conns[0].ops))
	for _, c := range r.conns {
		for i, n := range c.ops {
			out[i] += n
		}
	}
	return out
}

// perSecond regroups the fine slices into one-second throughputs, for
// reading a run by eye.
func (r *phaseResult) perSecond() []float64 {
	per := int(time.Second / r.slice)
	ops := r.sliceOps()
	out := make([]float64, 0, len(ops)/per)
	for i := 0; i+per <= len(ops); i += per {
		var n int64
		for _, v := range ops[i : i+per] {
			n += v
		}
		out = append(out, float64(n))
	}
	return out
}

// throughput is requests completed per second over the phase. With a heap
// of several hundred MB on two cores a GC cycle is a two-state affair: for
// the second or so that marking runs, one core is the collector's and
// throughput drops 2-4x, then it recovers until the next cycle, every 2-3 s
// on the put and scan workloads. A window that cuts a cycle in half reads
// up to 10 % off, and a median over slices flips between the two states. So
// when at least two cycle ends fall inside the window and span half of it,
// throughput is taken between the first and the last of them — over whole
// cycles — and otherwise over the whole window. cycles reports how many
// whole cycles were used (0 = whole window).
func (r *phaseResult) throughput() (opsPerS float64, cycles int) {
	ops := r.sliceOps()
	first, last := -1, -1
	for _, t := range r.gcEnds {
		if i := int(t.Sub(r.measure) / r.slice); !t.Before(r.measure) && i < len(ops) {
			if first < 0 {
				first = i
			}
			last, cycles = i, cycles+1
		}
	}
	lo, hi := 0, len(ops)
	if cycles >= 2 && last-first >= len(ops)/2 {
		lo, hi, cycles = first, last, cycles-1
	} else {
		cycles = 0
	}
	var n int64
	for _, v := range ops[lo:hi] {
		n += v
	}
	return float64(n) / (time.Duration(hi-lo) * r.slice).Seconds(), cycles
}

// sliceLatencies merges the connections' per-slice latency samples.
func (r *phaseResult) sliceLatencies() [][]uint32 {
	out := make([][]uint32, len(r.conns[0].lat))
	for _, c := range r.conns {
		for i, s := range c.lat {
			out[i] = append(out[i], s...)
		}
	}
	return out
}

// gcEndsSince lists the ends of the GC cycles that finished after from, in
// order, from the runtime's record of the last 256 cycles.
func gcEndsSince(from time.Time) []time.Time {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var out []time.Time
	for i := uint32(0); i < min(ms.NumGC, uint32(len(ms.PauseEnd))); i++ {
		t := time.Unix(0, int64(ms.PauseEnd[(ms.NumGC-i+255)%256]))
		if t.Before(from) {
			break
		}
		out = append(out, t)
	}
	slices.SortFunc(out, func(a, b time.Time) int { return a.Compare(b) })
	return out
}

// shape is a closed loop's load: connections, batches in flight per
// connection, requests per batch, the slice its counts are cut into, and
// whether round-trip latencies are kept per slice.
type shape struct {
	conns, window, batch int
	slice                time.Duration
	lat                  bool
}

// The two phases every workload is measured in. The unloaded phase keeps
// latencies in 100 ms slices because its round trip flips between a quiet
// and a disturbed state several times a second (README.md, "Noise"); the
// saturated phase only counts, in slices fine enough to cut at GC cycle
// ends.
var (
	unloadedShape  = shape{conns: 1, window: 1, batch: 1, slice: 100 * time.Millisecond, lat: true}
	saturatedShape = shape{conns: numConns, window: satWindow, batch: satBatch, slice: 10 * time.Millisecond}
)

type inflight struct {
	p    *client.Pending
	reqs []wire.Request
	t0   time.Time
	id   uint32
}

// drive runs one connection's closed loop: keep window batches of batch
// requests in flight, wait for the oldest, check it, issue the next. The
// first warm after start is discarded; the following dur is recorded per
// slice of sh.slice. cursor is the connection's position in its ring and
// persists across phases.
func (h *host) drive(ctx context.Context, ci int, cursor *int, sh shape, start time.Time, warm, dur time.Duration, trace bool, rec *connRecord) {
	window, batch, sliceLen := sh.window, sh.batch, sh.slice
	c, ring := h.conns[ci], h.rings[ci]
	nslices := int(dur / sliceLen)
	rec.ops = make([]int64, nslices)
	// Sized past anything loopback can do, so recording a sample never
	// allocates inside the timed loop.
	perSecond := 400_000/batch + 1024
	if sh.lat {
		rec.lat = make([][]uint32, nslices)
		for i := range rec.lat {
			rec.lat[i] = make([]uint32, 0, int(float64(perSecond)*sliceLen.Seconds())+64)
		}
	}
	if trace {
		rec.spans = make([]span, 0, 3*perSecond*int((warm+dur)/time.Second+1))
	}
	queue := make([]inflight, 0, window)
	measure := start.Add(warm)
	deadline := measure.Add(dur)
	var nextID uint32
	stopping := false
	for {
		for len(queue) < window && !stopping {
			if *cursor+batch > len(ring) {
				*cursor = 0
			}
			reqs := ring[*cursor : *cursor+batch]
			*cursor += batch
			t0 := time.Now()
			p := c.Go(reqs)
			if trace {
				rec.spans = append(rec.spans, span{kind: spanClientGo, batch: nextID, conn: uint8(ci),
					start: int64(t0.Sub(start)), end: int64(time.Since(start))})
			}
			queue = append(queue, inflight{p: p, reqs: reqs, t0: t0, id: nextID})
			nextID++
		}
		if len(queue) == 0 {
			return
		}
		e := queue[0]
		queue = append(queue[:0], queue[1:]...)
		var tw time.Time
		if trace {
			tw = time.Now()
		}
		resps, err := e.p.WaitCtx(ctx)
		t1 := time.Now()
		if trace {
			rec.spans = append(rec.spans,
				span{kind: spanClientWait, batch: e.id, conn: uint8(ci), start: int64(tw.Sub(start)), end: int64(t1.Sub(start))},
				span{kind: spanBatch, batch: e.id, conn: uint8(ci), start: int64(e.t0.Sub(start)), end: int64(t1.Sub(start))})
		}
		rec.attempted += int64(len(e.reqs))
		if err == nil && len(resps) != len(e.reqs) {
			err = fmt.Errorf("%d responses for %d requests", len(resps), len(e.reqs))
		}
		if err != nil {
			// A transport error, timeout or short batch fails every request
			// in it and ends the phase: the connection is dead.
			rec.failed += int64(len(e.reqs))
			if rec.firstErr == nil {
				rec.firstErr = err
			}
			stopping = true
			if ctx.Err() != nil {
				return // timed out: the Pending now belongs to the connection
			}
		} else {
			full := int(e.id) % len(resps) // rotate which response of a batch gets the content check
			for i := range resps {
				content := i == full && (batch >= checkEvery || e.id%checkEvery == 0)
				if cerr := h.data.checkResponse(&e.reqs[i], &resps[i], content); cerr != nil {
					rec.failed++
					if rec.firstErr == nil {
						rec.firstErr = cerr
					}
				}
			}
		}
		e.p.Release()
		if !t1.Before(measure) {
			if s := int(t1.Sub(measure) / sliceLen); s < nslices {
				rec.ops[s] += int64(len(e.reqs))
				if sh.lat {
					rec.lat[s] = append(rec.lat[s], clampNs(t1.Sub(e.t0)))
				}
			}
		}
		if !t1.Before(deadline) {
			stopping = true
		}
	}
}

// runPhase drives sh.conns connections concurrently, one goroutine each.
// Callers run runtime.GC() first so every phase starts from the same
// collector state.
func (h *host) runPhase(ctx context.Context, cursors []int, sh shape, warm, dur time.Duration, trace bool) *phaseResult {
	start := time.Now()
	res := &phaseResult{slice: sh.slice, measure: start.Add(warm)}
	var wg sync.WaitGroup
	for ci := 0; ci < sh.conns; ci++ {
		rec := &connRecord{}
		res.conns = append(res.conns, rec)
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			h.drive(ctx, ci, &cursors[ci], sh, start, warm, dur, trace, rec)
		}(ci)
	}
	wg.Wait()
	res.gcEnds = gcEndsSince(start)
	for _, c := range res.conns {
		res.attempted += c.attempted
		res.failed += c.failed
		if res.firstErr == nil {
			res.firstErr = c.firstErr
		}
	}
	return res
}
