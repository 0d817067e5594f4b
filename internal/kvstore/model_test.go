package kvstore

import (
	"slices"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/value"
)

// mputs is puts as the reference model takes them.
func mputs(puts []value.ColPut) []model.ColPut {
	out := make([]model.ColPut, len(puts))
	for i, p := range puts {
		out[i] = model.ColPut(p)
	}
	return out
}

// stateOf is v as the model states a value.
func stateOf(v *value.Value) model.State {
	return model.State{Cols: v.Cols(), Version: v.Version(), Expiry: v.ExpiresAt()}
}

// mirror drives a store's sessions and the reference model with the same
// writes. The model computes each write's state from the write's inputs and
// the version the store drew, and what the store reads back is held to that
// state on the spot.
type mirror struct {
	t      *testing.T
	s      *Store
	sess   []*Session // the i-th bound to worker i
	ref    *model.Model
	worker map[string]int // the worker each key was last written through
}

// newMirror mirrors n sessions of s.
func newMirror(t *testing.T, s *Store, n int) *mirror {
	return &mirror{t: t, s: s, sess: sessions(s, n), ref: model.NewHistory(), worker: map[string]int{}}
}

// matches holds what r's readers see, key by key, to the model: the same
// keys, at the same versions and expiries, with the same columns.
func (mr *mirror) matches(r *Store, label string) {
	if err := mr.ref.Err(); err != nil {
		fatalDump(mr.t, r, "%s: %v", label, err)
	}
	want, i := mr.ref.Range("", mr.ref.Len(), nanosIn(r, 0)), 0
	r.Tree().Scan(nil, func(k []byte, v *value.Value) bool {
		if expired(r.wall, v) {
			return true
		}
		if i == len(want) || want[i].Key != string(k) || !stateOf(v).Equal(want[i].State) {
			fatalDump(mr.t, r, "%s: %q holds %v; the model's next key is %v", label, k, stateOf(v), want[i:min(i+1, len(want))])
		}
		i++
		return true
	})
	if i != len(want) {
		fatalDump(mr.t, r, "%s: %q missing, at %v", label, want[i].Key, want[i].State)
	}
}

// now is the instant the model judges expiry at: the store's wall clock.
func (mr *mirror) now() uint64 { return nanosIn(mr.s, 0) }

// expiry is the deadline the model states for a TTL of ttl written now: 0
// for none. The store resolves the TTL itself, so the clock must not move
// between the write and this read (nothing advances it during a mirror call).
func (mr *mirror) expiry(ttl time.Duration) uint64 {
	if ttl == 0 {
		return 0
	}
	return nanosIn(mr.s, ttl)
}

// workerOf is the worker key is written through: the one it was last
// written through, or for a key not seen before the next in turn. The
// multi-writer schedules (putW/removeW) pick one per op, deliberately
// spreading one key's records across logs.
func (mr *mirror) workerOf(key string) int {
	w, ok := mr.worker[key]
	if !ok {
		w = len(mr.worker) % len(mr.sess)
		mr.worker[key] = w
	}
	return w
}

// check holds what the store answered for key — v, or nothing — to the
// state the model computed for it.
func (mr *mirror) check(what, key string, v *value.Value, found bool) {
	if err := mr.ref.Err(); err != nil {
		fatalDump(mr.t, mr.s, "%s of %q: %v", what, key, err)
	}
	want, ok := mr.ref.Get(key, mr.now())
	if found != ok || found && !stateOf(v).Equal(want) {
		got := "absent"
		if found {
			got = stateOf(v).String()
		}
		fatalDump(mr.t, mr.s, "%s of %q: the store has %s, the model computed %v (present %v)", what, key, got, want, ok)
	}
}

// readBack holds what worker's session reads of key to the model.
func (mr *mirror) readBack(what string, worker int, key string) {
	v, ok := mr.sess[worker].GetValue([]byte(key))
	mr.check(what, key, v, ok)
}

func col(c int, data string) value.ColPut { return value.ColPut{Col: c, Data: []byte(data)} }

// putW writes key through worker and returns the version the store drew.
func (mr *mirror) putW(worker int, key string, puts ...value.ColPut) uint64 {
	mr.worker[key] = worker
	ver := mr.sess[worker].Put([]byte(key), puts)
	mr.ref.Put(key, ver, mr.now(), mputs(puts)...)
	mr.readBack("put", worker, key)
	return ver
}

func (mr *mirror) put(key string, puts ...value.ColPut) {
	mr.putW(mr.workerOf(key), key, puts...)
}

func (mr *mirror) putSimple(key, val string) { mr.put(key, col(0, val)) }

// putTTLW is putW with a time to live. Its read-back goes to the tree
// itself: it notes no access, and a put that has lapsed already is absent to
// every reader.
func (mr *mirror) putTTLW(worker int, key string, ttl time.Duration, puts ...value.ColPut) uint64 {
	mr.worker[key] = worker
	ver := mr.sess[worker].PutTTL([]byte(key), puts, ttl)
	mr.ref.PutTTL(key, ver, mr.now(), mr.expiry(ttl), mputs(puts)...)
	v, ok := mr.s.tree.Get([]byte(key))
	mr.check("TTL put", key, v, ok && !expired(mr.s.wall, v))
	return ver
}

func (mr *mirror) putTTL(key, val string, ttl time.Duration) {
	mr.putTTLW(mr.workerOf(key), key, ttl, col(0, val))
}

// casW is CasPut through worker; the model says whether it applies and,
// if not, which version the conflict reports.
func (mr *mirror) casW(worker int, key string, expect uint64, puts ...value.ColPut) (uint64, bool) {
	mr.worker[key] = worker
	ver, ok := mr.sess[worker].CasPut([]byte(key), expect, puts)
	if mver, mok := mr.ref.CasPut(key, expect, ver, mr.now(), mputs(puts)...); ok != mok || ver != mver {
		fatalDump(mr.t, mr.s, "CasPut(%q, %d) = %d, %v; the model's %d, %v", key, expect, ver, ok, mver, mok)
	}
	mr.readBack("CAS", worker, key)
	return ver, ok
}

// touchW is Touch through worker; the model says whether it applies.
func (mr *mirror) touchW(worker int, key string, ttl time.Duration) (uint64, bool) {
	mr.worker[key] = worker
	ver, ok := mr.sess[worker].Touch([]byte(key), ttl)
	if mok := mr.ref.Touch(key, ver, mr.now(), mr.expiry(ttl)); ok != mok {
		fatalDump(mr.t, mr.s, "Touch(%q) applied %v, the model %v", key, ok, mok)
	}
	mr.readBack("touch", worker, key)
	return ver, ok
}

// batchW puts keys[i] := puts[i] through worker as one PutBatchInto, and
// the model in the same order. It returns the versions the batch drew.
func (mr *mirror) batchW(worker int, keys []string, puts ...[]value.ColPut) []uint64 {
	bkeys := make([][]byte, len(keys))
	for i, k := range keys {
		bkeys[i], mr.worker[k] = []byte(k), worker
	}
	vers := slices.Clone(mr.sess[worker].PutBatchInto(bkeys, puts))
	now := mr.now()
	for i, ver := range vers {
		mr.ref.Put(keys[i], ver, now, mputs(puts[i])...)
	}
	for _, k := range keys {
		mr.readBack("batch put", worker, k)
	}
	return vers
}

// removeW removes key through worker.
func (mr *mirror) removeW(worker int, key string) {
	mr.worker[key] = worker
	if got, want := mr.sess[worker].Remove([]byte(key)), mr.ref.Remove(key, mr.now()); got != want {
		fatalDump(mr.t, mr.s, "Remove(%q) reported %v, the model %v", key, got, want)
	}
}

func (mr *mirror) remove(key string) { mr.removeW(mr.workerOf(key), key) }

// evict observes that key left the tree without a record — an eviction or
// a sweep — and tells the model.
func (mr *mirror) evict(key string) {
	if !mr.ref.Evict(key) {
		fatalDump(mr.t, mr.s, "%q was dropped, and the model held no value for it", key)
	}
}

// frame applies ops through worker as one mixed segment, the way the server
// executes a frame's stretch of gets and puts (Session.PointBatchInto), and
// brings the model along in frame order: a put's state is what the model
// computes from its columns and the version the frame reported, and a get
// is held to the state the model says it follows, which is the frame-order
// contract. Each key the frame put is then read back. It returns what the
// frame reported.
func (mr *mirror) frame(worker int, ops ...frameOp) []frameResult {
	sess := mr.sess[worker]
	res := runFrame(sess, ops)
	now := mr.now()
	for i, op := range ops {
		if op.puts != nil {
			mr.worker[op.key] = worker
			mr.ref.Put(op.key, res[i].ver, now, mputs(op.puts)...)
			continue
		}
		want, ok := mr.ref.Get(op.key, now)
		if got := res[i]; got.found != ok || ok && (got.ver != want.Version || got.data != joinCols(want.Cols)) {
			fatalDump(mr.t, mr.s, "frame op %d: get of %q read %+v, the model's state is %v (present %v)", i, op.key, got, want, ok)
		}
	}
	for _, op := range ops {
		if op.puts != nil {
			v, ok := sess.GetValue([]byte(op.key))
			mr.check("frame put", op.key, v, ok)
		}
	}
	return res
}

// restart closes s and opens cfg on s's wall clock for the rest of the
// test.
func restart(t *testing.T, s *Store, cfg Config) *Store {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return openAt(t, cfg, s.wall)
}
