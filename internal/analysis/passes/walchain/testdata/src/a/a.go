// Package a is the walchain golden fixture: a miniature of the kvstore's
// write kernel with the real one's names (tree write methods
// Update/PutBatchInto taking func literals, a step method that alone
// calls nextVersion and returns a writeResult, a logWrite method that alone
// appends put records, a drop method whose second result is a remove's
// timestamp, a worker lock named lockWorker, and WAL types named Writer and
// Batch), exercising the clean kernel and every diagnostic.
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
func (t *Tree) PutBatchInto(keys [][]byte, f func(int, *Value) *Value) {}
func (t *Tree) RemoveIf(key []byte, f func(*Value) bool) *Value        { return nil }

type Writer struct{}

func (w *Writer) AppendPut(ts, prev uint64, key []byte, puts []ColPut) {}
func (w *Writer) AppendRemove(ts uint64, key []byte)                   {}
func (w *Writer) Begin() Batch                                         { return Batch{} }

type Batch struct{}

func (b Batch) Put(ts, prev uint64, key []byte, puts []ColPut, ttl bool, expiry uint64) {}
func (b Batch) Insert(ts uint64, key []byte, puts []ColPut, ttl bool, expiry uint64)    {}
func (b Batch) Anchor(ts uint64, key []byte, v *Value, ttl bool, expiry uint64)         {}
func (b Batch) End()                                                                    {}

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
func (s *Store) retire(worker int, old *Value) uint64      { return 3 }

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

// logWrite is the kernel's log stage: the record choice, written once, for
// one key or a batch. The link is the step's prev; an insert and an anchor
// carry none.
func (s *Store) logWrite(worker int, keys [][]byte, puts [][]ColPut, res []writeResult, ttl bool) {
	b := s.logs.Writer(worker).Begin()
	for i := range res {
		switch r := &res[i]; {
		case r.insert:
			b.Insert(r.ver, keys[i], puts[i], ttl, 0)
		case r.anchor:
			b.Anchor(r.ver, keys[i], r.nv, ttl, 0)
		default:
			b.Put(r.ver, r.prev, keys[i], puts[i], ttl, 0)
		}
	}
	b.End()
}

// write is the clean single-key driver: worker lock, step under the border
// lock, log stage.
func (s *Store) write(worker int, key []byte, op writeOp) (r writeResult) {
	mu := s.lockWorker(worker)
	defer mu.Unlock()
	s.tree.Update(key, func(old *Value) *Value {
		r = s.step(worker, op, old)
		return r.nv
	})
	s.logWrite(worker, [][]byte{key}, [][]ColPut{op.puts}, []writeResult{r}, op.ttl)
	return r
}

type scratch struct {
	res []writeResult
	out []uint64
}

// putBatch is the clean batch driver: the step results go to the log stage
// as they are.
func (s *Store) putBatch(worker int, keys [][]byte, puts [][]ColPut, sc *scratch) []uint64 {
	mu := s.lockWorker(worker)
	defer mu.Unlock()
	s.tree.PutBatchInto(keys, func(i int, old *Value) *Value {
		r := s.step(worker, writeOp{puts: puts[i]}, old)
		sc.res[i], sc.out[i] = r, r.ver
		return r.nv
	})
	s.logWrite(worker, keys, puts, sc.res, false)
	return sc.out
}

// badDraw draws a version outside the step, and runs the step outside any
// tree write: both are unordered against the value they stamp.
func (s *Store) badDraw(worker int, key []byte, op writeOp, cur *Value) {
	mu := s.lockWorker(worker)
	defer mu.Unlock()
	_ = s.nextVersion(worker, cur) // want `nextVersion outside the kernel step`
	r := s.step(worker, op, cur)   // want `step outside a tree-write critical section`
	s.logWrite(worker, [][]byte{key}, [][]ColPut{op.puts}, []writeResult{r}, op.ttl)
}

// badAppendOutside re-spells the record choice outside the log stage, with
// the one-record append and with a batch of its own.
func (s *Store) badAppendOutside(worker int, key []byte, op writeOp) {
	mu := s.lockWorker(worker)
	defer mu.Unlock()
	var r writeResult
	s.tree.Update(key, func(old *Value) *Value {
		r = s.step(worker, op, old)
		return r.nv
	})
	s.logs.Writer(worker).AppendPut(r.ver, r.prev, key, op.puts) // want `Writer.AppendPut outside the log stage`
	b := s.logs.Writer(worker).Begin()
	b.Put(r.ver, r.prev, key, op.puts, false, 0) // want `Batch.Put outside the log stage`
	b.Anchor(r.ver, key, r.nv, false, 0)         // want `Batch.Anchor outside the log stage`
	b.End()
}

// badNoLock reaches the log stage with no worker lock: nothing serializes
// the draw-to-append window against the next writer.
func (s *Store) badNoLock(worker int, keys [][]byte, puts [][]ColPut, sc *scratch) {
	s.tree.PutBatchInto(keys, func(i int, old *Value) *Value {
		sc.res[i] = s.step(worker, writeOp{}, old)
		return sc.res[i].nv
	})
	s.logWrite(worker, keys, puts, sc.res, false) // want `logWrite before lockWorker`
}

// badLockAfter takes the worker lock only after the append.
func (s *Store) badLockAfter(worker int, key []byte, op writeOp) {
	var r writeResult
	s.tree.Update(key, func(old *Value) *Value {
		r = s.step(worker, op, old)
		return r.nv
	})
	s.logWrite(worker, [][]byte{key}, [][]ColPut{op.puts}, []writeResult{r}, op.ttl) // want `logWrite before lockWorker`
	mu := s.lockWorker(worker)
	mu.Unlock()
}

type otherStore struct{ logs *Set }

// logWrite on another type stands in for a log stage gone wrong: a link read
// from the value the caller happens to hold and not from the step's result —
// the prev the chain invariant forbids — a link laundered through a local
// that something besides the step's prev feeds, and a forged constant.
func (o *otherStore) logWrite(worker int, keys [][]byte, puts [][]ColPut, res []writeResult, cur *Value) {
	b := o.logs.Writer(worker).Begin()
	for i := range res {
		r := &res[i]
		prev := r.prev
		if r.anchor {
			prev = cur.Version()
		}
		b.Put(r.ver, cur.Version(), keys[i], puts[i], false, 0)   // want `prev cur.Version\(\) of Batch.Put is not sourced from the step's result`
		b.Put(r.ver, prev, keys[i], puts[i], false, 0)            // want `prev prev of Batch.Put is not sourced from the step's result`
		b.Put(r.ver, 7, keys[i], puts[i], true, 0)                // want `constant prev 7 in Batch.Put: only 0 \(a chain anchor\) may be a constant link`
		b.Put(r.prev, r.prev, keys[i], puts[i], false, 0)         // want `ver r.prev of Batch.Put is not sourced from the step's result`
		b.Insert(r.ver+1, keys[i], puts[i], false, 0)             // want `ver r.ver \+ 1 of Batch.Insert is not sourced from the step's result`
		b.Anchor(cur.Version(), keys[i], r.nv, false, 0)          // want `ver cur.Version\(\) of Batch.Anchor is not sourced from the step's result`
		b.Put(r.ver, 0, keys[i], puts[i], true, 0)                // clean: the anchor's literal 0
		b.Put((res[i].ver), (r.prev), keys[i], puts[i], false, 0) // clean: the step's own fields
	}
	b.End()
	w := o.logs.Writer(worker)
	w.AppendPut(res[0].ver, cur.Version(), keys[0], puts[0]) // want `prev cur.Version\(\) of Writer.AppendPut is not sourced from the step's result`
}

// goodAllowed: a deliberate exception carries an annotated reason.
func (s *Store) goodAllowed(worker int, key []byte, puts []ColPut, replayVer, replayPrev uint64) {
	mu := s.lockWorker(worker)
	defer mu.Unlock()
	//lint:allow walchain replay re-logs versions drawn by the original writer
	s.logs.Writer(worker).AppendPut(replayVer, replayPrev, key, puts)
}

// drop is the drop kernel: the departure's timestamp is drawn under the
// border lock of the key it removes.
func (s *Store) drop(worker int, key []byte) (old *Value, ver uint64) {
	old = s.tree.RemoveIf(key, func(v *Value) bool {
		ver = s.retire(worker, v)
		return true
	})
	return old, ver
}

// remove is the clean remove: worker lock, drop, its timestamp appended.
func (s *Store) remove(worker int, key []byte) bool {
	mu := s.lockWorker(worker)
	defer mu.Unlock()
	old, ver := s.drop(worker, key)
	if old == nil {
		return false
	}
	s.logs.Writer(worker).AppendRemove(ver, key)
	return true
}

// badRemoveNoLock appends the remove record with no worker lock taken.
func (s *Store) badRemoveNoLock(worker int, key []byte) {
	_, ver := s.drop(worker, key)
	s.logs.Writer(worker).AppendRemove(ver, key) // want `Writer.AppendRemove before lockWorker`
}

// badRemoveTS logs a timestamp drawn outside the border lock, once read off
// the value the caller holds and once laundered through a local.
func (s *Store) badRemoveTS(worker int, key []byte, cur *Value) {
	mu := s.lockWorker(worker)
	defer mu.Unlock()
	ver := s.retire(worker, cur)
	s.drop(worker, key)
	s.logs.Writer(worker).AppendRemove(ver, key)           // want `timestamp ver of Writer.AppendRemove is not sourced from drop: it must be the ver drop drew under the border lock`
	s.logs.Writer(worker).AppendRemove(cur.Version(), key) // want `timestamp cur.Version\(\) of Writer.AppendRemove is not sourced from drop`
}
