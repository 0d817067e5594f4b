// Package a is the walchain golden fixture: a miniature of the kvstore's
// write kernel with the real one's names (tree write methods
// Update/Apply/PutBatchInto taking func literals, a step method that alone
// calls nextVersion and returns a writeResult, a logWrite method that alone
// makes the single-record chained appends, a worker lock named lockWorker,
// and a WAL type named Writer), exercising the clean kernel and every
// diagnostic.
package a

type Value struct{}

func (v *Value) Version() uint64 {
	if v == nil {
		return 0
	}
	return 1
}

type ColPut struct {
	Col  int
	Data []byte
}

type Tree struct{}

func (t *Tree) Update(key []byte, f func(*Value) *Value)               {}
func (t *Tree) Apply(key []byte, f func(*Value) *Value)                {}
func (t *Tree) PutBatchInto(keys [][]byte, f func(int, *Value) *Value) {}

type Writer struct{}

func (w *Writer) AppendPut(ts, prev uint64, key []byte, puts []ColPut)                            {}
func (w *Writer) AppendPutTTL(ts, prev uint64, key []byte, puts []ColPut, expiry uint64)          {}
func (w *Writer) AppendPutBatch(keys [][]byte, puts [][]ColPut, ts, prev []uint64, insert []bool) {}
func (w *Writer) AppendInsert(ts uint64, key []byte, puts []ColPut)                               {}

type Set struct{}

func (s *Set) Writer(i int) *Writer { return &Writer{} }

type mutex struct{}

func (m *mutex) Unlock() {}

type Store struct {
	tree *Tree
	logs *Set
}

func (s *Store) lockWorker(worker int) *mutex              { return &mutex{} }
func (s *Store) nextVersion(worker int, old *Value) uint64 { return 2 }

type writeOp struct {
	puts []ColPut
	ttl  bool
}

type writeResult struct {
	nv        *Value
	ver, prev uint64
	insert    bool
	anchor    bool
}

// step is the kernel's first stage: the one version draw, the one prev read.
func (s *Store) step(worker int, op writeOp, old *Value) (r writeResult) {
	r.prev = old.Version()
	r.ver = s.nextVersion(worker, old)
	r.nv = old
	return r
}

// logWrite is the kernel's log stage: the record choice, written once. The
// link is the step's prev or, for an anchor, the literal 0.
func (s *Store) logWrite(worker int, key []byte, op writeOp, r writeResult) {
	w := s.logs.Writer(worker)
	puts, prev := op.puts, r.prev
	if r.anchor {
		puts, prev = nil, 0
	}
	switch {
	case r.insert:
		w.AppendInsert(r.ver, key, puts)
	case op.ttl:
		w.AppendPutTTL(r.ver, prev, key, puts, 0)
	default:
		w.AppendPut(r.ver, prev, key, puts)
	}
}

// write is the clean single-key driver: worker lock, step under the border
// lock, log stage.
func (s *Store) write(worker int, key []byte, op writeOp) (r writeResult) {
	mu := s.lockWorker(worker)
	defer mu.Unlock()
	s.tree.Apply(key, func(old *Value) *Value {
		r = s.step(worker, op, old)
		return r.nv
	})
	s.logWrite(worker, key, op, r)
	return r
}

type scratch struct {
	res         []writeResult
	vers, prevs []uint64
	inserts     []bool
}

// putBatch is the clean batch driver: scratch slices filled from step
// results count as the step's own, and the handoff fallback goes through the
// log stage.
func (s *Store) putBatch(worker int, keys [][]byte, puts [][]ColPut, sc *scratch) {
	mu := s.lockWorker(worker)
	defer mu.Unlock()
	handoffs := false
	s.tree.PutBatchInto(keys, func(i int, old *Value) *Value {
		r := s.step(worker, writeOp{puts: puts[i]}, old)
		sc.res[i] = r
		sc.vers[i], sc.prevs[i], sc.inserts[i] = r.ver, r.prev, r.insert
		handoffs = handoffs || r.anchor
		return r.nv
	})
	if !handoffs {
		s.logs.Writer(worker).AppendPutBatch(keys, puts, sc.vers, sc.prevs, sc.inserts)
		return
	}
	for i := range keys {
		s.logWrite(worker, keys[i], writeOp{puts: puts[i]}, sc.res[i])
	}
}

// badDraw draws a version outside the step, and runs the step outside any
// tree write: both are unordered against the value they stamp.
func (s *Store) badDraw(worker int, key []byte, op writeOp, cur *Value) {
	mu := s.lockWorker(worker)
	defer mu.Unlock()
	_ = s.nextVersion(worker, cur) // want `nextVersion outside the kernel step`
	r := s.step(worker, op, cur)   // want `step outside a tree-write critical section`
	s.logWrite(worker, key, op, r)
}

// badAppendOutside re-spells a chained append outside the log stage.
func (s *Store) badAppendOutside(worker int, key []byte, op writeOp) {
	mu := s.lockWorker(worker)
	defer mu.Unlock()
	var r writeResult
	s.tree.Update(key, func(old *Value) *Value {
		r = s.step(worker, op, old)
		return r.nv
	})
	s.logs.Writer(worker).AppendPut(r.ver, r.prev, key, op.puts) // want `AppendPut outside the log stage`
}

// badNoLock reaches the log stage, and the batch append, with no worker lock:
// nothing serializes the draw-to-append window against the next writer.
func (s *Store) badNoLock(worker int, keys [][]byte, puts [][]ColPut, sc *scratch) {
	var r writeResult
	s.tree.Apply(keys[0], func(old *Value) *Value {
		r = s.step(worker, writeOp{}, old)
		sc.vers[0], sc.prevs[0] = r.ver, r.prev
		return r.nv
	})
	s.logWrite(worker, keys[0], writeOp{}, r)                                       // want `logWrite before lockWorker`
	s.logs.Writer(worker).AppendPutBatch(keys, puts, sc.vers, sc.prevs, sc.inserts) // want `AppendPutBatch before lockWorker`
}

// badLockAfter takes the worker lock only after the append.
func (s *Store) badLockAfter(worker int, key []byte, op writeOp) {
	var r writeResult
	s.tree.Apply(key, func(old *Value) *Value {
		r = s.step(worker, op, old)
		return r.nv
	})
	s.logWrite(worker, key, op, r) // want `logWrite before lockWorker`
	mu := s.lockWorker(worker)
	mu.Unlock()
}

// badBatchSources fills the batch's version and link slices from something
// other than the step's result — the prev read the chain invariant forbids.
func (s *Store) badBatchSources(worker int, keys [][]byte, puts [][]ColPut, sc *scratch, cur *Value) {
	mu := s.lockWorker(worker)
	defer mu.Unlock()
	s.tree.PutBatchInto(keys, func(i int, old *Value) *Value {
		r := s.step(worker, writeOp{puts: puts[i]}, old)
		sc.vers[i] = r.ver + 1
		sc.prevs[i] = cur.Version()
		return r.nv
	})
	s.logs.Writer(worker).AppendPutBatch(keys, puts, sc.vers, sc.prevs, sc.inserts) // want `ver sc.vers of AppendPutBatch is not sourced from the step's result` `prev sc.prevs of AppendPutBatch is not sourced from the step's result`
}

type otherStore struct{ logs *Set }

// logWrite on another type stands in for a log stage gone wrong: a link
// laundered through a local that something besides the step's prev feeds,
// and a forged constant.
func (o *otherStore) logWrite(worker int, key []byte, op writeOp, r writeResult, cur *Value) {
	w := o.logs.Writer(worker)
	prev := r.prev
	if r.anchor {
		prev = cur.Version()
	}
	w.AppendPut(r.ver, prev, key, op.puts)       // want `prev prev of AppendPut is not sourced from the step's result`
	w.AppendPutTTL(r.ver, 7, key, op.puts, 0)    // want `constant prev 7 in AppendPutTTL: only 0 \(a chain anchor\) may be a constant link`
	w.AppendPut(r.prev, r.prev, key, op.puts)    // want `ver r.prev of AppendPut is not sourced from the step's result`
	w.AppendPutTTL(r.ver, 0, key, op.puts, 0)    // clean: the anchor's literal 0
	w.AppendPut((r.ver), (r.prev), key, op.puts) // clean: the step's own fields
}

// goodAllowed: a deliberate exception carries an annotated reason.
func (s *Store) goodAllowed(worker int, key []byte, puts []ColPut, replayVer, replayPrev uint64) {
	mu := s.lockWorker(worker)
	defer mu.Unlock()
	//lint:allow walchain replay re-logs versions drawn by the original writer
	s.logs.Writer(worker).AppendPut(replayVer, replayPrev, key, puts)
}
