package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/kvstore"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/wire"
)

// opClass groups requests the way the per-layer metrics do.
type opClass int

const (
	kindGet opClass = iota
	kindPut
	kindScan
	numKinds
)

func classOf(op wire.OpCode) opClass {
	switch op {
	case wire.OpPut:
		return kindPut
	case wire.OpGetRange:
		return kindScan
	}
	return kindGet
}

// replayResult is the layer replay's account of where one goroutine's time
// goes when the request path's layers are called back to back, with no
// sockets and no handoffs between them.
type replayResult struct {
	batches int64
	ops     int64
	ns      [numSpanKinds]int64 // summed span time per path step
	n       [numKinds]int64     // requests per class
	storeNs [numKinds]int64     // the store step, split by class
	coreNs  [numKinds]int64     // core called directly on the same inputs
	valueNs int64               // value.BuildAt on the same puts
	walNs   int64               // wal.Writer.AppendPut on the same puts
	pins    int64               // epoch Enter/Exit pairs the store step paid

	scanKeys   int64
	respBytes  int64
	walBytes   int64
	epochPinNs float64
	spans      []span
}

func (r *replayResult) perOp(v int64) float64 { return ratio(v, r.ops) }

// total is the summed time of the five path steps.
func (r *replayResult) total() int64 {
	var t int64
	for k := spanReqEncode; k <= spanRespDecode; k++ {
		t += r.ns[k]
	}
	return t
}

func (r *replayResult) meanUs(k spanKind) float64 { return ratio(r.ns[k], r.batches) / 1e3 }

// childNs is the part of the store step its children account for; the rest
// is kvstore's self time.
func (r *replayResult) childNs() int64 {
	t := r.valueNs + r.walNs + int64(float64(r.pins)*r.epochPinNs)
	for _, v := range r.coreNs {
		t += v
	}
	return t
}

// replayer holds the scratch a replay reuses across batches, mirroring the
// server's per-connection scratch so the store step allocates what the
// server's would.
type replayer struct {
	h    *host
	sess *kvstore.Session
	eh   *epoch.Handle
	log  *wal.Writer
	res  *replayResult

	resps   []wire.Response
	cols    [][]byte
	pairs   []wire.Pair
	rng     kvstore.RangeScratch
	keys    [][]byte
	puts    []value.ColPut
	putRuns [][]value.ColPut
	vals    []*value.Value
	found   []bool
	olds    []*value.Value
	csc     core.BatchScratch
	scanBuf []byte
	ts      uint64
	sink    *value.Value
}

// runEnd mirrors the server's batching rule: consecutive OpGets or OpPuts
// form a run served by the batched store call when at least two long;
// everything else executes one request at a time.
func runEnd(reqs []wire.Request, i int) int {
	op := reqs[i].Op
	if op != wire.OpGet && op != wire.OpPut {
		return i + 1
	}
	j := i + 1
	for j < len(reqs) && reqs[j].Op == op {
		j++
	}
	return j
}

func (x *replayer) collect(reqs []wire.Request) {
	x.keys, x.puts, x.putRuns = x.keys[:0], x.puts[:0], x.putRuns[:0]
	for i := range reqs {
		x.keys = append(x.keys, reqs[i].Key)
		start := len(x.puts)
		for _, p := range reqs[i].Puts {
			x.puts = append(x.puts, value.ColPut{Col: p.Col, Data: p.Data})
		}
		x.putRuns = append(x.putRuns, x.puts[start:len(x.puts):len(x.puts)])
	}
}

func (x *replayer) getResponse(v *value.Value, ok bool, cols []int) wire.Response {
	if !ok {
		return wire.Response{Status: wire.StatusNotFound}
	}
	start := len(x.cols)
	x.cols = kvstore.AppendCols(x.cols, v, cols)
	return wire.Response{Status: wire.StatusOK, Version: v.Version(), Cols: x.cols[start:len(x.cols):len(x.cols)]}
}

// execStore is the store step: what the server's executor does with a
// decoded batch, through the same Session calls on the live store.
func (x *replayer) execStore(reqs []wire.Request) []wire.Response {
	x.resps = x.resps[:0]
	x.cols, x.pairs = x.cols[:0], x.pairs[:0]
	x.rng.Reset()
	for i := 0; i < len(reqs); {
		j := runEnd(reqs, i)
		run := reqs[i:j]
		class := classOf(run[0].Op)
		start := time.Now()
		switch {
		case class == kindGet && len(run) >= 2:
			x.collect(run)
			vals, found := x.sess.GetBatchInto(x.keys)
			for k := range run {
				x.resps = append(x.resps, x.getResponse(vals[k], found[k], run[k].Cols))
			}
		case class == kindPut && len(run) >= 2:
			x.collect(run)
			for _, ver := range x.sess.PutBatchInto(x.keys, x.putRuns) {
				x.resps = append(x.resps, wire.Response{Status: wire.StatusOK, Version: ver})
			}
		case class == kindGet:
			v, ok := x.sess.GetValue(run[0].Key)
			x.resps = append(x.resps, x.getResponse(v, ok, run[0].Cols))
		case class == kindPut:
			x.collect(run)
			x.resps = append(x.resps, wire.Response{Status: wire.StatusOK, Version: x.sess.Put(run[0].Key, x.putRuns[0])})
		default:
			first := len(x.pairs)
			for _, p := range x.sess.GetRangeInto(run[0].Key, run[0].N, run[0].Cols, &x.rng) {
				x.pairs = append(x.pairs, wire.Pair{Key: p.Key, Cols: p.Cols})
			}
			x.resps = append(x.resps, wire.Response{Status: wire.StatusOK, Pairs: x.pairs[first:len(x.pairs):len(x.pairs)]})
		}
		x.res.storeNs[class] += int64(time.Since(start))
		x.res.n[class] += int64(len(run))
		x.res.pins++
		i = j
	}
	return x.resps
}

// execChildren calls the store step's children directly on a batch of the
// same generated inputs: core on the live tree under an epoch pin (a put
// stores back the value it found, so the store's contents do not change),
// value.BuildAt over the value each put would replace, and
// wal.Writer.AppendPut into a scratch log.
func (x *replayer) execChildren(reqs []wire.Request) {
	tree := x.h.store.Tree()
	for i := 0; i < len(reqs); {
		j := runEnd(reqs, i)
		run := reqs[i:j]
		class := classOf(run[0].Op)
		x.collect(run)
		x.eh.Enter()
		switch class {
		case kindGet:
			start := time.Now()
			if len(run) >= 2 {
				x.vals, x.found = grow(x.vals, len(run)), grow(x.found, len(run))
				tree.GetBatchInto(x.keys, x.vals, x.found, &x.csc)
			} else {
				x.sink, _ = tree.Get(run[0].Key)
			}
			x.res.coreNs[kindGet] += int64(time.Since(start))
		case kindScan:
			left := run[0].N
			start := time.Now()
			x.scanBuf = tree.ScanInto(run[0].Key, x.scanBuf[:0], func(_ []byte, v *value.Value) bool {
				x.sink = v
				left--
				return left > 0
			})
			x.res.coreNs[kindScan] += int64(time.Since(start))
			x.res.scanKeys += int64(run[0].N - left)
		case kindPut:
			// Core first, while the keys are still cold; the descent leaves
			// each old value in cache for BuildAt, as it does in the store.
			keep := func(_ int, old *value.Value) *value.Value { return old }
			start := time.Now()
			if len(run) >= 2 {
				tree.PutBatchInto(x.keys, &x.csc, keep)
			} else {
				tree.Update(run[0].Key, func(old *value.Value) *value.Value { return old })
			}
			descended := time.Now()
			x.olds = x.olds[:0]
			for _, k := range x.keys {
				old, _ := tree.Get(k)
				x.olds = append(x.olds, old)
			}
			built := time.Now()
			for k := range run {
				x.sink = value.BuildAt(x.olds[k], x.putRuns[k], x.ts+uint64(k)+1, 0)
			}
			logged := time.Now()
			for k := range run {
				x.ts++
				x.log.AppendPut(x.ts, x.ts-1, x.keys[k], x.putRuns[k])
			}
			x.res.walNs += int64(time.Since(logged))
			x.res.valueNs += int64(logged.Sub(built))
			x.res.coreNs[kindPut] += int64(descended.Sub(start))
		}
		x.eh.Exit()
		i = j
	}
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// replay pushes nbatches pre-generated batches of the given size through
// the request path's layers in order, on this goroutine, each call a span
// under its batch: wire request encode and decode, the store step, wire
// response encode and decode. It reads connection 0's ring from its start,
// so two runs with one seed replay the same bytes and their byte counts
// repeat exactly.
func (h *host) replay(batch, nbatches int) (*replayResult, error) {
	logDir := filepath.Join(h.dir, fmt.Sprintf("replay-wal-%d", batch))
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	logs, err := wal.OpenSet(logDir, 1, 1, false, wal.DefaultFlushInterval)
	if err != nil {
		return nil, err
	}
	defer logs.Close()
	x := &replayer{h: h, sess: h.store.Session(0), eh: h.store.Epoch().Register(),
		log: logs.Writer(0), res: &replayResult{epochPinNs: h.epochPinNs()}}
	defer x.sess.Close()
	defer h.store.Epoch().Unregister(x.eh)
	res := x.res
	var enc, renc []byte
	var dec wire.DecodeBuf
	var rdec wire.RespDecodeBuf
	ring := h.rings[0]
	cursor := 0
	origin := time.Now()
	for b := 0; b < nbatches; b++ {
		if cursor+batch > len(ring) {
			cursor = 0
		}
		reqs := ring[cursor : cursor+batch]
		cursor += batch
		tag := uint32(b)

		var at [6]time.Time
		at[0] = time.Now()
		if enc, err = wire.AppendTaggedRequests(enc[:0], tag, reqs); err != nil {
			return nil, err
		}
		at[1] = time.Now()
		decoded, err := wire.ParseRequests(enc[8:], &dec) // past the frame's length and tag words
		if err != nil {
			return nil, err
		}
		at[2] = time.Now()
		resps := x.execStore(decoded)
		at[3] = time.Now()
		if renc, err = wire.AppendTaggedResponses(renc[:0], tag, resps); err != nil {
			return nil, err
		}
		at[4] = time.Now()
		back, err := wire.ParseResponses(renc[8:], &rdec)
		if err != nil {
			return nil, err
		}
		at[5] = time.Now()

		for i := range back {
			if cerr := h.data.checkResponse(&reqs[i], &back[i], i == b%len(back)); cerr != nil {
				return nil, fmt.Errorf("replayed batch %d: %w", b, cerr)
			}
		}
		keep := len(res.spans) < maxSpansWritten
		if keep {
			res.spans = append(res.spans, span{kind: spanBatch, batch: tag, start: int64(at[0].Sub(origin)), end: int64(at[5].Sub(origin))})
		}
		for k := spanReqEncode; k <= spanRespDecode; k++ {
			s, e := at[k-spanReqEncode], at[k-spanReqEncode+1]
			res.ns[k] += int64(e.Sub(s))
			if keep {
				res.spans = append(res.spans, span{kind: k, batch: tag, start: int64(s.Sub(origin)), end: int64(e.Sub(origin))})
			}
		}
		res.batches++
		res.ops += int64(batch)
		res.respBytes += int64(len(renc))
		// The children run on the batch half a ring ahead: the same generator's
		// output, but keys the store step has not just pulled into cache —
		// timed on this batch's own keys they would look ~8x cheaper than
		// they are inside the store step.
		far := (cursor + len(ring)/2) % len(ring)
		if far+batch > len(ring) {
			far = 0
		}
		x.execChildren(ring[far : far+batch])
	}
	if err := logs.Flush(); err != nil {
		return nil, err
	}
	res.walBytes = dirBytes(logDir, "log-*")
	return res, nil
}
