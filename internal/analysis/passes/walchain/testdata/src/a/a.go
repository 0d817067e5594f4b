// Package a is the walchain golden fixture: a miniature of the kvstore's
// write kernel with the real one's names (the tree write method BatchInto,
// whose func literal alone may run the step, and Update, which locks too but
// may not; a step method that alone calls nextVersion and returns a
// writeResult, a logWrite method that alone appends records, a worker lock
// named lockWorker, and WAL types named Writer and Batch, whose Put, Insert
// and Remove are the record appends), exercising the one clean driver and
// every diagnostic.
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

func (t *Tree) Update(key []byte, f func(*Value) *Value)            {}
func (t *Tree) BatchInto(keys [][]byte, f func(int, *Value) *Value) {}
func (t *Tree) RemoveIf(key []byte, f func(*Value) bool) *Value     { return nil }

type Writer struct{}

func (w *Writer) AppendPut(ts, prev uint64, key []byte, puts []ColPut) {}
func (w *Writer) Begin() Batch                                         { return Batch{} }

type Batch struct{}

func (b Batch) Put(ts, prev uint64, key []byte, puts []ColPut, ttl bool, expiry uint64)           {}
func (b Batch) Insert(ts uint64, key []byte, puts []ColPut, full *Value, ttl bool, expiry uint64) {}
func (b Batch) Remove(ts uint64, key []byte)                                                      {}
func (b Batch) End()                                                                              {}

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
	ttl bool
}

type writeResult struct {
	nv        *Value
	ver, prev uint64
	insert    bool
	remove    bool
}

// step is the kernel's first stage: the one version draw, the one prev read.
func (s *Store) step(worker int, op writeOp, puts []ColPut, old *Value) (r writeResult) {
	r.prev = old.Version()
	r.ver = s.nextVersion(worker, old)
	r.nv = old
	r.insert = old == nil
	return r
}

// logWrite is the kernel's log stage: the record choice, written once, for
// one key or a batch. The link is the step's prev; an insert and a remove
// carry none, and a remove's timestamp is the step's ver like any other.
func (s *Store) logWrite(worker int, keys [][]byte, puts [][]ColPut, res []writeResult, ttl bool) {
	b := s.logs.Writer(worker).Begin()
	for i := range res {
		switch r := &res[i]; {
		case r.remove:
			b.Remove(r.ver, keys[i])
		case r.insert:
			b.Insert(r.ver, keys[i], puts[i], nil, ttl, 0)
		default:
			b.Put(r.ver, r.prev, keys[i], puts[i], ttl, 0)
		}
	}
	b.End()
}

type scratch struct {
	res []writeResult
	out []uint64
}

// pointBatch is the one clean driver, for a batch and a single key alike:
// worker lock, the steps under the border locks, and the step results go to
// the log stage as they are.
func (s *Store) pointBatch(worker int, op writeOp, keys [][]byte, puts [][]ColPut, sc *scratch) []uint64 {
	mu := s.lockWorker(worker)
	defer mu.Unlock()
	s.tree.BatchInto(keys, func(i int, old *Value) *Value {
		r := s.step(worker, op, puts[i], old)
		sc.res[i], sc.out[i] = r, r.ver
		return r.nv
	})
	s.logWrite(worker, keys, puts, sc.res, op.ttl)
	return sc.out
}

// badUpdate runs the step under Update: a border lock, but not the driver's.
func (s *Store) badUpdate(worker int, key []byte, op writeOp) {
	s.tree.Update(key, func(old *Value) *Value {
		return s.step(worker, op, nil, old).nv // want `step outside a tree-write critical section`
	})
}

// badDraw draws a version outside the step, and runs the step outside any
// tree write: both are unordered against the value they stamp.
func (s *Store) badDraw(worker int, key []byte, op writeOp, puts []ColPut, cur *Value) {
	mu := s.lockWorker(worker)
	defer mu.Unlock()
	_ = s.nextVersion(worker, cur)     // want `nextVersion outside the kernel step`
	r := s.step(worker, op, puts, cur) // want `step outside a tree-write critical section`
	s.logWrite(worker, [][]byte{key}, [][]ColPut{puts}, []writeResult{r}, op.ttl)
}

// badAppendOutside re-spells the record choice outside the log stage, with
// the one-record append and with a batch of its own.
func (s *Store) badAppendOutside(worker int, key []byte, op writeOp, puts []ColPut) {
	mu := s.lockWorker(worker)
	defer mu.Unlock()
	var r writeResult
	s.tree.BatchInto([][]byte{key}, func(_ int, old *Value) *Value {
		r = s.step(worker, op, puts, old)
		return r.nv
	})
	s.logs.Writer(worker).AppendPut(r.ver, r.prev, key, puts) // want `Writer.AppendPut outside the log stage`
	b := s.logs.Writer(worker).Begin()
	b.Put(r.ver, r.prev, key, puts, false, 0) // want `Batch.Put outside the log stage`
	b.Insert(r.ver, key, nil, r.nv, false, 0) // want `Batch.Insert outside the log stage`
	b.End()
}

// badNoLock reaches the log stage with no worker lock: nothing serializes
// the draw-to-append window against the next writer.
func (s *Store) badNoLock(worker int, keys [][]byte, puts [][]ColPut, sc *scratch) {
	s.tree.BatchInto(keys, func(i int, old *Value) *Value {
		sc.res[i] = s.step(worker, writeOp{}, puts[i], old)
		return sc.res[i].nv
	})
	s.logWrite(worker, keys, puts, sc.res, false) // want `logWrite before lockWorker`
}

// badLockAfter takes the worker lock only after the append.
func (s *Store) badLockAfter(worker int, key []byte, op writeOp, puts []ColPut) {
	var r writeResult
	s.tree.BatchInto([][]byte{key}, func(_ int, old *Value) *Value {
		r = s.step(worker, op, puts, old)
		return r.nv
	})
	s.logWrite(worker, [][]byte{key}, [][]ColPut{puts}, []writeResult{r}, op.ttl) // want `logWrite before lockWorker`
	mu := s.lockWorker(worker)
	mu.Unlock()
}

type otherStore struct{ logs *Set }

// logWrite on another type stands in for a log stage gone wrong: a link read
// from the value the caller happens to hold and not from the step's result —
// the prev the chain invariant forbids — a link laundered through a local
// that something besides the step's prev feeds, and forged constants: no
// link is a constant, 0 included, since a record that needs none is an
// insert. A remove's timestamp is held to the same rule as a put's version.
func (o *otherStore) logWrite(worker int, keys [][]byte, puts [][]ColPut, res []writeResult, cur *Value) {
	b := o.logs.Writer(worker).Begin()
	for i := range res {
		r := &res[i]
		prev, link := r.prev, r.prev
		if r.insert {
			prev = cur.Version()
			link = 0
		}
		b.Put(r.ver, cur.Version(), keys[i], puts[i], false, 0)   // want `prev cur.Version\(\) of Batch.Put is not sourced from the step's result`
		b.Put(r.ver, prev, keys[i], puts[i], false, 0)            // want `prev prev of Batch.Put is not sourced from the step's result`
		b.Put(r.ver, link, keys[i], puts[i], false, 0)            // want `prev link of Batch.Put is not sourced from the step's result`
		b.Put(r.ver, 7, keys[i], puts[i], true, 0)                // want `constant prev 7 in Batch.Put: a record that needs no link is an insert`
		b.Put(r.ver, 0, keys[i], puts[i], true, 0)                // want `constant prev 0 in Batch.Put: a record that needs no link is an insert`
		b.Put(r.prev, r.prev, keys[i], puts[i], false, 0)         // want `ver r.prev of Batch.Put is not sourced from the step's result`
		b.Insert(r.ver+1, keys[i], puts[i], nil, false, 0)        // want `ver r.ver \+ 1 of Batch.Insert is not sourced from the step's result`
		b.Insert(cur.Version(), keys[i], nil, r.nv, false, 0)     // want `ver cur.Version\(\) of Batch.Insert is not sourced from the step's result`
		b.Remove(7, keys[i])                                      // want `ver 7 of Batch.Remove is not sourced from the step's result`
		b.Remove(cur.Version(), keys[i])                          // want `ver cur.Version\(\) of Batch.Remove is not sourced from the step's result`
		b.Put((res[i].ver), (r.prev), keys[i], puts[i], false, 0) // clean: the step's own fields
		b.Remove((r.ver), keys[i])                                // clean: the step's own ver
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

// drop takes a key out and hands its caller the departure's timestamp, drawn
// under the border lock of the key it removes.
func (s *Store) drop(worker int, key []byte) (old *Value, ver uint64) {
	old = s.tree.RemoveIf(key, func(v *Value) bool {
		ver = s.retire(worker, v)
		return true
	})
	return old, ver
}

// remove is a remove with a driver of its own — worker lock, drop, its
// timestamp appended — beside the one write driver: a second record path,
// whose timestamp is not a step result's.
func (s *Store) remove(worker int, key []byte) bool {
	mu := s.lockWorker(worker)
	defer mu.Unlock()
	old, ver := s.drop(worker, key)
	if old == nil {
		return false
	}
	b := s.logs.Writer(worker).Begin()
	b.Remove(ver, key) // want `Batch.Remove outside the log stage` `ver ver of Batch.Remove is not sourced from the step's result`
	b.End()
	return true
}

// badRemoveNoLock appends a remove record outside the log stage with no
// worker lock taken, its timestamp the step's own.
func (s *Store) badRemoveNoLock(worker int, key []byte) {
	var r writeResult
	s.tree.BatchInto([][]byte{key}, func(_ int, old *Value) *Value {
		r = s.step(worker, writeOp{}, nil, old)
		return r.nv
	})
	b := s.logs.Writer(worker).Begin()
	b.Remove(r.ver, key) // want `Batch.Remove outside the log stage` `Batch.Remove before lockWorker`
	b.End()
}
