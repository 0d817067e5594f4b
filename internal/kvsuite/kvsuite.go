// Package kvsuite is the one test suite every client face of the wire
// answers — a client.Conn, and a cluster.Cluster of one node or of three,
// direct or through idle netfault proxies — judged by internal/model. Each
// worker owns its keys, so its model judges each point answer as it
// arrives. Scans cross every worker's keys, so each is stamped on one shared
// logical clock and judged at the end against every key's stamped writes.
// The package imports no server, cluster or netfault, so each of those
// packages' tests builds its own targets. No program imports it.
package kvsuite

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/model"
	"repro/internal/wire"
)

// Target is one face of the wire over empty stores with no backend tier.
type Target struct {
	// KV is the face every worker shares, where there are no Conns.
	KV client.KV
	// Conns, if set, are the connections the workers share: worker w drives
	// Conns[w%len(Conns)], through its KV and in frames of its own.
	Conns []*client.Conn
	// Ranges is false where a GetRange must be refused, as a Cluster of
	// several nodes refuses a range that spans shards.
	Ranges bool
}

func (tg Target) kv(w int) client.KV {
	if len(tg.Conns) == 0 {
		return tg.KV
	}
	return tg.Conns[w%len(tg.Conns)].KV
}

// workers is how many goroutines drive a target at once; ops is how many
// requests or frames each sends.
const (
	workers = 4
	ops     = 300
)

// Run runs the suite's cases against tg: "ops", the workers' own keys under
// every operation, and "cas-counter", one key every worker increments by CAS.
func Run(t *testing.T, tg Target) {
	t.Run("ops", func(t *testing.T) { runOps(t, tg) })
	t.Run("cas-counter", func(t *testing.T) { casCounter(t, tg) })
}

// keys returns worker w's keys, a group of each family the tree stores
// differently: inline keys of up to 8 bytes; suffix keys, alone in their
// first 8-byte slice; twigs of one to four keys sharing a slice; a layer,
// six keys sharing a slice, one of them the slice alone; and two layers,
// six keys sharing two slices. The leading digit keeps workers apart.
func keys(w int) []string {
	var ks []string
	for i := range 6 {
		ks = append(ks, fmt.Sprintf("%di%0*d", w, 1+i, i), fmt.Sprintf("%ds%06d-suffix", w, i))
	}
	for g := range 4 {
		for j := range g + 1 {
			ks = append(ks, fmt.Sprintf("%dt%06d-%d", w, g, j))
		}
	}
	for _, lead := range []string{fmt.Sprintf("%dl000000", w), fmt.Sprintf("%dd000000-layer-2", w)} {
		ks = append(ks, lead)
		for j := range 5 {
			ks = append(ks, fmt.Sprintf("%s%d", lead, j))
		}
	}
	return ks
}

// write is one write that changed a key, stamped on the suite's clock when
// it was sent and when its answer came, with what it left behind.
type write struct {
	inv, ret int64
	st       model.State
	live     bool
}

// scan is one GetRange and its answer, stamped as a write is.
type scan struct {
	inv, ret int64
	req      wire.Request
	pairs    []wire.Pair
}

// worker drives one goroutine's requests on its own keys.
type worker struct {
	id     int
	kv     client.KV
	conn   *client.Conn // nil: no frames
	rng    *rand.Rand
	keys   []string
	ranges bool
	clock  *atomic.Int64
	m      *model.Model
	hist   map[string][]write
	scans  []scan
}

func runOps(t *testing.T, tg Target) {
	var clock atomic.Int64
	ws := make([]*worker, workers)
	for w := range ws {
		ws[w] = &worker{id: w, kv: tg.kv(w), rng: rand.New(rand.NewSource(int64(w + 1))), keys: keys(w),
			ranges: tg.Ranges, clock: &clock, m: model.New(), hist: map[string][]write{}}
		if len(tg.Conns) > 0 {
			ws[w].conn = tg.Conns[w%len(tg.Conns)]
		}
	}
	parallel(t, workers, func(w int) error { return ws[w].run() })

	// Every key holds what its owner's model holds.
	hist := map[string][]write{}
	for _, w := range ws {
		for _, k := range w.keys {
			if err := w.one(wire.Request{Op: wire.OpGet, Key: []byte(k)}); err != nil {
				t.Fatalf("after the workers: %v", err)
			}
		}
		maps.Copy(hist, w.hist)
	}
	written := slices.Sorted(maps.Keys(hist))
	for _, w := range ws {
		for _, s := range w.scans {
			if err := s.judge(hist, written); err != nil {
				t.Fatalf("worker %d: %v", w.id, err)
			}
		}
	}
	// No target has a backend tier, and only a single store serves a range.
	if _, _, _, _, err := tg.kv(0).GetOrLoad([]byte("no-backend"), nil); err == nil {
		t.Fatal("GetOrLoad without a backend tier: no error")
	}
	if pairs, err := tg.kv(0).GetRange(nil, 10, nil); (err == nil) != tg.Ranges {
		t.Fatalf("GetRange with Ranges %v: %d pairs, %v", tg.Ranges, len(pairs), err)
	}
}

func (w *worker) run() error {
	for i := range ops {
		var err error
		if w.conn != nil && w.rng.Intn(8) == 0 {
			err = w.frames()
		} else {
			err = w.one(w.request())
		}
		if err != nil {
			return fmt.Errorf("worker %d op %d: %w", w.id, i, err)
		}
	}
	return nil
}

// request draws one request on the worker's keys: a put of one to three
// columns, with no TTL or a TTL of 0 or of an hour; a touch to either TTL; a
// CAS that may or may not expect the current version; a remove; a scan from
// any worker's key; or a get of every column or of two.
func (w *worker) request() wire.Request {
	r := wire.Request{Key: []byte(w.keys[w.rng.Intn(len(w.keys))])}
	ttl := uint32(w.rng.Intn(2) * 3600)
	switch n := w.rng.Intn(16); {
	case n < 4:
		r.Op, r.Puts = wire.OpPut, w.puts()
	case n == 4:
		r.Op, r.Puts, r.TTL = wire.OpPutTTL, w.puts(), ttl
	case n == 5:
		r.Op, r.TTL = wire.OpTouch, ttl
	case n < 8:
		st, _ := w.m.Get(string(r.Key), 0)
		r.Op, r.Puts, r.ExpectVersion = wire.OpCas, w.puts(), st.Version+uint64(w.rng.Intn(2))
	case n == 8:
		r.Op = wire.OpRemove
	case n < 11 && w.ranges:
		ks := keys(w.rng.Intn(workers))
		r.Op, r.Key, r.N = wire.OpGetRange, []byte(ks[w.rng.Intn(len(ks))]), 1+w.rng.Intn(12)
		if w.rng.Intn(2) == 0 {
			r.Cols = []int{1}
		}
	default:
		r.Op = wire.OpGet
		if w.rng.Intn(2) == 0 {
			r.Cols = []int{w.rng.Intn(4), w.rng.Intn(2)}
		}
	}
	return r
}

// puts draws one to three column puts over columns 0 to 3, an empty column
// among them now and then.
func (w *worker) puts() []wire.ColData {
	p := make([]wire.ColData, 1+w.rng.Intn(3))
	for i := range p {
		p[i].Col = w.rng.Intn(4)
		if w.rng.Intn(8) > 0 {
			p[i].Data = fmt.Appendf(nil, "w%d-%d", w.id, w.rng.Intn(1000))
		}
	}
	return p
}

// one sends r alone through the worker's KV and judges the answer.
func (w *worker) one(r wire.Request) error {
	inv := w.clock.Add(1)
	resp, err := call(w.kv, r)
	if err != nil {
		return fmt.Errorf("%s: %w", show(r), err)
	}
	return w.judge(r, resp, inv, w.clock.Add(1))
}

// frames sends one frame of 1 to 40 requests — up to three of the tree's
// 16-key batch groups — with Do, or two with Go, pipelined and waited for
// newest first. Each frame's answers are judged in request order, the order
// the server executes them in.
func (w *worker) frames() error {
	frame := func() []wire.Request {
		reqs := make([]wire.Request, 1+w.rng.Intn(40))
		for i := range reqs {
			reqs[i] = w.request()
		}
		return reqs
	}
	a := frame()
	inv := w.clock.Add(1)
	if w.rng.Intn(2) == 0 {
		resps, err := w.conn.Do(a)
		if err != nil {
			return err
		}
		return w.judgeFrame(a, resps, inv, w.clock.Add(1))
	}
	b := frame()
	pa, pb := w.conn.Go(a), w.conn.Go(b)
	rb, errB := pb.Wait()
	ra, errA := pa.Wait()
	ret := w.clock.Add(1)
	err := errors.Join(errA, errB)
	if err == nil {
		err = w.judgeFrame(a, ra, inv, ret)
	}
	if err == nil {
		err = w.judgeFrame(b, rb, inv, ret)
	}
	pa.Release()
	pb.Release()
	return err
}

// judgeFrame judges a frame's answers, whose count the Conn has checked.
func (w *worker) judgeFrame(reqs []wire.Request, resps []wire.Response, inv, ret int64) error {
	for i := range reqs {
		// The answer reads as the typed call for its op would read it.
		resp, err := call(client.NewKV(func(wire.Request) (wire.Response, error) { return resps[i], nil }), reqs[i])
		if err == nil {
			err = w.judge(reqs[i], resp, inv, ret)
		}
		if err != nil {
			return fmt.Errorf("request %d of a frame of %d: %w", i, len(reqs), err)
		}
	}
	return nil
}

// call sends r through kv's typed call for its op, and states the result as
// the response the call decoded.
func call(kv client.KV, r wire.Request) (wire.Response, error) {
	var resp wire.Response
	ok, miss := true, wire.StatusNotFound
	var err error
	switch r.Op {
	case wire.OpGet:
		resp.Cols, resp.Version, ok, err = kv.Get(r.Key, r.Cols)
	case wire.OpPut:
		resp.Version, err = kv.Put(r.Key, r.Puts)
	case wire.OpPutTTL:
		resp.Version, err = kv.PutTTL(r.Key, r.Puts, r.TTL)
	case wire.OpTouch:
		resp.Version, ok, err = kv.Touch(r.Key, r.TTL)
	case wire.OpCas:
		resp.Version, ok, err = kv.CasPut(r.Key, r.ExpectVersion, r.Puts)
		miss = wire.StatusConflict
	case wire.OpRemove:
		ok, err = kv.Remove(r.Key)
	case wire.OpGetRange:
		resp.Pairs, err = kv.GetRange(r.Key, r.N, r.Cols)
	}
	if !ok {
		resp.Status = miss
	}
	return resp, err
}

// judge holds resp, the answer to r, to the worker's model, and applies a
// write to the model and to its key's history. A scan is recorded for the
// scans' judgement.
func (w *worker) judge(r wire.Request, resp wire.Response, inv, ret int64) error {
	key := string(r.Key)
	if r.Op == wire.OpGetRange {
		pairs := make([]wire.Pair, len(resp.Pairs))
		for i, p := range resp.Pairs {
			pairs[i] = wire.Pair{Key: bytes.Clone(p.Key), Cols: make([][]byte, len(p.Cols))}
			for j, c := range p.Cols {
				pairs[i].Cols[j] = bytes.Clone(c)
			}
		}
		w.scans = append(w.scans, scan{inv, ret, r, pairs})
		return nil
	}
	st, live := w.m.Get(key, 0)
	want := wire.Response{Status: wire.StatusNotFound}
	switch {
	case r.Op == wire.OpGet && live:
		want = wire.Response{Version: st.Version, Cols: project(st.Cols, r.Cols)}
	case r.Op == wire.OpCas && st.Version != r.ExpectVersion:
		want = wire.Response{Status: wire.StatusConflict, Version: st.Version}
	case r.Op == wire.OpRemove && live:
		want.Status = wire.StatusOK
	case r.Op == wire.OpPut || r.Op == wire.OpPutTTL || r.Op == wire.OpCas || r.Op == wire.OpTouch && live:
		want = wire.Response{Version: resp.Version} // any version the model accepts
	}
	if resp.Status != want.Status || resp.Version != want.Version || !colsEqual(resp.Cols, want.Cols) {
		return fmt.Errorf("%s answered %s, want %s", show(r), showResp(resp), showResp(want))
	}
	if r.Op == wire.OpGet || want.Status != wire.StatusOK {
		return nil
	}
	// A TTL of 0 or of an hour decides the same on any clock, so the model
	// runs at time 0.
	expiry := uint64(time.Duration(r.TTL) * time.Second)
	switch r.Op {
	case wire.OpTouch:
		w.m.Touch(key, resp.Version, 0, expiry)
	case wire.OpRemove:
		w.m.Remove(key, 0)
	default:
		puts := make([]model.ColPut, len(r.Puts))
		for i, p := range r.Puts {
			puts[i] = model.ColPut{Col: p.Col, Data: p.Data}
		}
		w.m.PutTTL(key, resp.Version, 0, expiry, puts...)
	}
	if err := w.m.Err(); err != nil {
		return fmt.Errorf("%s answered %s: %w", show(r), showResp(resp), err)
	}
	st, live = w.m.Get(key, 0)
	w.hist[key] = append(w.hist[key], write{inv, ret, st, live})
	return nil
}

// held returns what the key whose writes are ws held throughout [inv, ret],
// and false if a write of it overlapped that interval. A key never written
// is absent throughout.
func held(ws []write, inv, ret int64) (write, bool) {
	var last write
	for _, x := range ws {
		switch {
		case x.ret < inv:
			last = x
		case x.inv > ret:
			return last, true
		default:
			return write{}, false
		}
	}
	return last, true
}

// judge holds s to the writes in hist, whose keys are written, in order:
// the pairs are sorted, unique, from the start key on and at most N; none
// is of a key dead throughout the scan; a key that held one value throughout
// answers with it; and every key live throughout the scan, up to where it
// stopped, appears.
func (s scan) judge(hist map[string][]write, written []string) error {
	if len(s.pairs) > s.req.N {
		return fmt.Errorf("%s answered %d pairs", show(s.req), len(s.pairs))
	}
	got := map[string]bool{}
	prev := string(s.req.Key)
	for i, p := range s.pairs {
		k := string(p.Key)
		if k < prev || (i > 0 && k == prev) {
			return fmt.Errorf("%s: pair %d is %q after %q", show(s.req), i, k, prev)
		}
		x, stable := held(hist[k], s.inv, s.ret)
		if stable && !x.live {
			return fmt.Errorf("%s: pair %d is %q, which was absent throughout", show(s.req), i, k)
		}
		if want := project(x.st.Cols, s.req.Cols); stable && !colsEqual(p.Cols, want) {
			return fmt.Errorf("%s: pair %q holds %q, want %q", show(s.req), k, p.Cols, want)
		}
		got[k], prev = true, k
	}
	i, _ := slices.BinarySearch(written, string(s.req.Key))
	for _, k := range written[i:] {
		if len(s.pairs) == s.req.N && k > prev {
			break
		}
		if x, stable := held(hist[k], s.inv, s.ret); stable && x.live && !got[k] {
			return fmt.Errorf("%s: %q, live throughout, is missing from %d pairs", show(s.req), k, len(s.pairs))
		}
	}
	return nil
}

// casCounter has every worker add one to a shared key by CAS 50 times,
// rereading on conflict. No increment may be lost, and every conflict needs
// an increment by another worker between its read and its CAS: each of
// those can explain one conflict of each other worker, so all the workers
// together make at most workers² × 50 tries.
func casCounter(t *testing.T, tg Target) {
	const per = 50
	key := []byte("cas-counter")
	var tries atomic.Int64
	parallel(t, workers, func(w int) error {
		for range per {
			for done := false; !done; {
				if tries.Add(1) > workers*workers*per {
					return fmt.Errorf("worker %d: more conflicts than the other workers' increments explain", w)
				}
				cols, ver, ok, err := tg.kv(w).Get(key, nil)
				n := 0
				if err == nil && ok {
					n, err = strconv.Atoi(string(cols[0]))
				}
				if err == nil {
					_, done, err = tg.kv(w).CasPut(key, ver, []wire.ColData{{Data: strconv.AppendInt(nil, int64(n+1), 10)}})
				}
				if err != nil {
					return fmt.Errorf("worker %d: %w", w, err)
				}
			}
		}
		return nil
	})
	if cols, _, _, err := tg.kv(0).Get(key, nil); err != nil || len(cols) != 1 || string(cols[0]) != strconv.Itoa(workers*per) {
		t.Fatalf("after %d increments: %q, %v", workers*per, cols, err)
	}
}

// parallel runs f(0) to f(n-1) on their own goroutines and fails t, from
// t's goroutine, with every error they return.
func parallel(t *testing.T, n int, f func(w int) error) {
	t.Helper()
	errs := make(chan error, n)
	for w := range n {
		go func() { errs <- f(w) }()
	}
	for range n {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
}

// project is what a get of cols reads from a value of columns all: every
// column for nil cols, and an empty column past the value's width.
func project(all [][]byte, cols []int) [][]byte {
	if cols == nil {
		return all
	}
	out := make([][]byte, len(cols))
	for i, c := range cols {
		if c < len(all) {
			out[i] = all[c]
		}
	}
	return out
}

// colsEqual compares columns; an empty column equals nil.
func colsEqual(a, b [][]byte) bool { return slices.EqualFunc(a, b, bytes.Equal) }

func show(r wire.Request) string {
	return fmt.Sprintf("op %d %q (cols %v, puts %q, ttl %d, expect %d, n %d)", r.Op, r.Key, r.Cols, r.Puts, r.TTL, r.ExpectVersion, r.N)
}

func showResp(r wire.Response) string {
	return fmt.Sprintf("status %d version %d cols %q", r.Status, r.Version, r.Cols)
}
