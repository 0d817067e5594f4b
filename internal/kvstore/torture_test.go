package kvstore

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/value"
	"repro/internal/vfs"
)

// The crash-point torture harness: run a put/checkpoint/put workload over
// the injectable filesystem, kill the store at every write/fsync/rename
// boundary, recover from several legal post-crash disk images, and check
// the recovered store against a model of acknowledged writes.
//
// Model invariants, per key:
//   - No lost acks: the recovered state is never older than the last
//     acknowledged state (a write is acknowledged once a Flush with
//     SyncWrites, or a completed checkpoint, covered it).
//   - No resurrections: keys never written do not appear; acknowledged
//     removes stay removed (unless a later applied write re-created the
//     key).
//   - Exact states only: a recovered value's (version, columns) must
//     exactly equal some state the live store actually produced — versions
//     never mix with other states' data.

// kvState is one applied state of a key.
type kvState struct {
	ver  uint64
	data string // all columns joined; "" plus tomb for removals
	tomb bool
}

type keyHist struct {
	worker int
	states []kvState
	acked  int // index of the last acknowledged state; -1 if none
	// dropped marks a key the cache-mode maintenance passes evicted or
	// expired (observed against the live tree). Drops are clean — never
	// logged — so after a crash the key may be absent (checkpoint omitted
	// it, pre-checkpoint records skip replay) or present at an applied
	// state (its log record replayed); absence is not a lost ack.
	dropped bool
}

type torture struct {
	t       *testing.T
	mem     *vfs.MemFS
	fault   *vfs.Fault
	s       *Store
	hist    map[string]*keyHist
	workers int
	parts   int
}

const tortureDir = "/data"

// fatalDump fails the run after dumping the store's flight recorder: the
// event timeline (recovery phases, chain rollbacks, missing logs, eviction
// decisions) is the post-mortem context a torture invariant violation
// needs, and it is gone once the process exits.
func fatalDump(t *testing.T, s *Store, format string, args ...any) {
	t.Helper()
	t.Logf("store flight recorder at failure:\n%s", s.Obs().Recorder().DumpString())
	t.Fatalf(format, args...)
}

func joinCols(cols [][]byte) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = string(c)
	}
	return strings.Join(parts, "|")
}

func (tt *torture) histOf(key string) *keyHist {
	h := tt.hist[key]
	if h == nil {
		// put/remove pin a key to this default worker; the multi-writer
		// schedules (putW/removeW in torture_multiwriter_test.go) override
		// it per op, deliberately spreading one key's records across logs.
		h = &keyHist{worker: len(tt.hist) % tt.workers, acked: -1}
		tt.hist[key] = h
	}
	return h
}

func (tt *torture) put(key string, puts ...value.ColPut) {
	h := tt.histOf(key)
	ver := tt.s.Put(h.worker, []byte(key), puts)
	cols, ok := tt.s.Get([]byte(key), nil)
	if !ok {
		fatalDump(tt.t, tt.s, "key %q vanished right after put", key)
	}
	h.states = append(h.states, kvState{ver: ver, data: joinCols(cols)})
	h.dropped = false // present again, whatever a maintenance pass did before
}

func (tt *torture) putSimple(key, val string) {
	tt.put(key, value.ColPut{Col: 0, Data: []byte(val)})
}

// frame applies ops through worker as one mixed segment, the way the server
// executes a frame's stretch of gets and puts (Session.PointBatchInto), and
// brings the model along. A put's state is the version the frame reported
// and the columns its own next get of the key read — or the store's, if the
// put was the frame's last word on the key — so a frame that writes a key
// twice must read it in between. A get is held to the state the model says
// it follows, which is the frame-order contract.
func (tt *torture) frame(worker int, ops ...frameOp) {
	sess := tt.s.Session(worker)
	defer sess.Close()
	res := runFrame(sess, ops)
	for i, op := range ops {
		h := tt.histOf(op.key)
		if op.puts == nil {
			want := kvState{tomb: true}
			if n := len(h.states); n > 0 {
				want = h.states[n-1]
			}
			if got := res[i]; got.found == want.tomb || got.found && (got.ver != want.ver || got.data != want.data) {
				fatalDump(tt.t, tt.s, "frame op %d: get of %q read %+v, the model's last state is %+v", i, op.key, got, want)
			}
			continue
		}
		h.worker = worker
		st, read := kvState{ver: res[i].ver}, false
		for j := i + 1; j < len(ops) && !read; j++ {
			if ops[j].key != op.key {
				continue
			}
			if ops[j].puts != nil {
				tt.t.Fatalf("frame op %d: %q is put again at op %d with no get between", i, op.key, j)
			}
			st.data, read = res[j].data, true
		}
		if !read {
			cols, ok := tt.s.Get([]byte(op.key), nil)
			if !ok {
				fatalDump(tt.t, tt.s, "key %q vanished right after its frame", op.key)
			}
			st.data = joinCols(cols)
		}
		h.states = append(h.states, st)
		h.dropped = false
	}
}

func (tt *torture) remove(key string) {
	h := tt.histOf(key)
	if tt.s.Remove(h.worker, []byte(key)) {
		h.states = append(h.states, kvState{tomb: true})
	}
}

// ack makes everything applied so far durable: a timestamp mark in every
// log (so no idle log pins the recovery cutoff) followed by a synced
// flush. Only on success does the model consider the writes acknowledged.
func (tt *torture) ack() error {
	tt.s.logs.Mark(tt.s.clock.max())
	if err := tt.s.Flush(); err != nil {
		return err
	}
	tt.promote()
	return nil
}

func (tt *torture) promote() {
	for _, h := range tt.hist {
		h.acked = len(h.states) - 1
	}
}

// ckpt checkpoints; on success everything applied before it is durable
// (the fuzzy scan ran with no concurrent writers here).
func (tt *torture) ckpt() error {
	if _, _, err := tt.s.CheckpointN(tt.parts); err != nil {
		return err
	}
	tt.promote()
	return nil
}

// workload is the put/checkpoint/put sequence under torture. Any injected
// crash surfaces as an error from the first ack/ckpt it breaks.
func (tt *torture) workload() error {
	// Phase 1: initial population (short keys, layered long keys, and a
	// same-slice pair that stays a twig through every boundary below).
	for i := 0; i < 12; i++ {
		tt.putSimple(fmt.Sprintf("k%02d", i), fmt.Sprintf("r1-%d", i))
	}
	for i := 0; i < 8; i++ {
		tt.putSimple(fmt.Sprintf("shared-long-prefix-%04d", i), fmt.Sprintf("r1L-%d", i))
	}
	tt.putSimple("twigpair-a", "r1-a")
	tt.putSimple("twigpair-b", "r1-b")
	if err := tt.ack(); err != nil {
		return err
	}
	if err := tt.ckpt(); err != nil {
		return err
	}
	// Phase 2: overwrites, multi-column puts, removes.
	for i := 0; i < 6; i++ {
		tt.putSimple(fmt.Sprintf("k%02d", i), fmt.Sprintf("r2-%d", i))
	}
	tt.put("k03",
		value.ColPut{Col: 1, Data: []byte("extra-col")},
		value.ColPut{Col: 2, Data: []byte("third")})
	tt.remove("k07")
	tt.remove("shared-long-prefix-0002")
	tt.put("twigpair-a", value.ColPut{Col: 1, Data: []byte("r2-a-c1")})
	tt.remove("twigpair-b")
	// A mixed frame over the same state: a same-key put pair of partial
	// columns with a get between, a get of a removed key, an insert.
	tt.frame(tt.histOf("k04").worker,
		getOp("k04"), putOp("k04", value.ColPut{Col: 1, Data: []byte("f2-c1")}), getOp("k04"),
		putOp("k04", value.ColPut{Col: 0, Data: []byte("f2-c0")}),
		putOp("shared-long-prefix-0003", value.ColPut{Col: 2, Data: []byte("f2L")}), getOp("k07"),
		putOp("frame-new", value.ColPut{Col: 0, Data: []byte("f2-new")}), getOp("frame-new"))
	if err := tt.ack(); err != nil {
		return err
	}
	// Phase 3: more writes, then a second checkpoint (reclaims logs).
	for i := 0; i < 8; i++ {
		tt.putSimple(fmt.Sprintf("shared-long-prefix-%04d", i+4), fmt.Sprintf("r3L-%d", i))
	}
	tt.putSimple("k07", "reborn") // re-insert past the remove
	tt.putSimple("twigpair-b", "reborn-b")
	tt.putSimple("twigpair-c", "r3-c")
	if err := tt.ckpt(); err != nil {
		return err
	}
	// Phase 4: tail writes, acknowledged by flush only.
	for i := 0; i < 6; i++ {
		tt.putSimple(fmt.Sprintf("k%02d", i+6), fmt.Sprintf("r4-%d", i))
	}
	tt.remove("k01")
	tt.remove("twigpair-a")
	tt.frame(tt.histOf("k08").worker,
		putOp("k08", value.ColPut{Col: 1, Data: []byte("f4-c1")}), getOp("k01"), getOp("k08"),
		putOp("k08", value.ColPut{Col: 2, Data: []byte("f4-c2")}), putOp("k01", value.ColPut{Col: 0, Data: []byte("f4-reborn")}))
	if err := tt.ack(); err != nil {
		return err
	}
	// Phase 5: applied but never acknowledged (may or may not survive).
	tt.putSimple("k00", "r5-pending")
	tt.putSimple("pending-new", "r5-new")
	tt.frame(tt.histOf("k02").worker,
		putOp("k02", value.ColPut{Col: 1, Data: []byte("f5-pending")}), getOp("k02"),
		putOp("k02", value.ColPut{Col: 0, Data: []byte("f5-pending-too")}))
	return nil
}

// verify recovers from one post-crash disk image and checks every model
// invariant.
func (tt *torture) verify(img *vfs.MemFS, label string) {
	t := tt.t
	r, err := Open(Config{
		Dir: tortureDir, Workers: tt.workers, FS: img, SyncWrites: true,
		FlushInterval: time.Hour, MaintainEvery: -1, CheckpointParts: tt.parts,
	})
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", label, err)
	}
	defer r.Close()
	r.Tree().Scan(nil, func(k []byte, v *value.Value) bool {
		h := tt.hist[string(k)]
		if h == nil {
			fatalDump(t, r, "%s: recovered key %q that was never written", label, k)
		}
		idx := -1
		for j, st := range h.states {
			if !st.tomb && st.ver == v.Version() {
				idx = j
				break
			}
		}
		if idx < 0 {
			fatalDump(t, r, "%s: key %q recovered at version %d, matching no applied state", label, k, v.Version())
		}
		if got := joinCols(v.Cols()); got != h.states[idx].data {
			fatalDump(t, r, "%s: key %q version %d recovered %q, applied state was %q (mixed state)",
				label, k, v.Version(), got, h.states[idx].data)
		}
		if idx < h.acked {
			fatalDump(t, r, "%s: key %q recovered state %d older than acknowledged state %d (lost ack)",
				label, k, idx, h.acked)
		}
		return true
	})
	for k, h := range tt.hist {
		if _, ok := r.Get([]byte(k), nil); ok {
			continue
		}
		if h.acked < 0 {
			continue // never acknowledged; total loss is legal
		}
		lostOK := h.dropped // a clean-dropped (evicted/expired) key may vanish
		for j := h.acked; j < len(h.states); j++ {
			if h.states[j].tomb {
				lostOK = true // an applied remove at/after the ack explains absence
				break
			}
		}
		if !lostOK {
			fatalDump(t, r, "%s: acknowledged key %q lost (acked state %d of %d)", label, k, h.acked, len(h.states))
		}
	}
}

// crashImages are the post-crash directory-state choices each crash is
// checked against: no pending directory op persisted (the conservative
// journal), all of them, and — the adversarial POSIX case — only the
// removes, modeling a crash that remembers reclamation but forgets the
// renames and creates that preceded it.
var crashImages = []struct {
	name string
	keep func(vfs.DirOp) bool
}{
	{"keep-none", nil},
	{"keep-all", vfs.KeepAll},
	{"keep-removes", func(op vfs.DirOp) bool { return op.Kind == vfs.DirRemove }},
}

// runTorture executes the workload with a crash armed at boundary crashAt
// (0 = disarmed), then verifies recovery from every crash image. Returns
// the number of boundaries executed and whether the crash fired.
func runTorture(t *testing.T, crashAt, workers, parts int) (ops int, crashed bool) {
	mem := vfs.NewMemFS()
	fault := vfs.NewFault(mem)
	fault.CrashAt(crashAt)
	tt := &torture{t: t, mem: mem, fault: fault, hist: map[string]*keyHist{}, workers: workers, parts: parts}
	s, err := Open(Config{
		Dir: tortureDir, Workers: workers, FS: fault, SyncWrites: true,
		FlushInterval: time.Hour, MaintainEvery: -1, CheckpointParts: parts,
	})
	if err != nil {
		if !errors.Is(err, vfs.ErrCrashed) {
			t.Fatalf("crashAt=%d: open: %v", crashAt, err)
		}
	} else {
		tt.s = s
		if werr := tt.workload(); werr != nil && !errors.Is(werr, vfs.ErrCrashed) {
			t.Fatalf("crashAt=%d: workload: %v", crashAt, werr)
		}
		// Close is part of the tortured op stream too (flushes and marks).
		if cerr := s.Close(); cerr == nil && !fault.Crashed() {
			tt.promote() // clean shutdown acknowledges everything
		}
	}
	ops, crashed = fault.Ops(), fault.Crashed()
	for _, img := range crashImages {
		c := mem.Clone()
		c.Crash(img.keep)
		tt.verify(c, fmt.Sprintf("crashAt=%d/%s", crashAt, img.name))
	}
	return ops, crashed
}

// TestCrashTortureEveryBoundary enumerates every filesystem boundary of
// the single-worker, single-part workload — the op stream is deterministic
// — and crashes at each one in turn.
func TestCrashTortureEveryBoundary(t *testing.T) {
	total, crashed := runTorture(t, 0, 1, 1)
	if crashed {
		t.Fatal("disarmed run crashed")
	}
	t.Logf("workload executes %d crash boundaries x %d images", total, len(crashImages))
	for i := 1; i <= total; i++ {
		runTorture(t, i, 1, 1)
	}
}

// TestCrashTortureMultiWorkerMultiPart tortures the concurrent pipeline:
// three worker logs and four checkpoint part writers. Part writers race,
// so boundary numbering varies run to run — every crash still lands on
// *some* boundary, and the model must hold wherever it lands. The loop
// walks crash points until a run completes without reaching its boundary.
func TestCrashTortureMultiWorkerMultiPart(t *testing.T) {
	for i := 1; ; i++ {
		_, crashed := runTorture(t, i, 3, 4)
		if !crashed {
			t.Logf("concurrent workload exhausted after %d crash points", i-1)
			break
		}
		if i > 2000 {
			t.Fatal("boundary count runaway")
		}
	}
}
