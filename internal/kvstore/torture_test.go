package kvstore

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/value"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// The crash-point torture harness: run a workload over the injectable
// filesystem, kill the store at every write/fsync/rename boundary, recover
// from every legal post-crash disk image, and check the recovered store
// against a model of acknowledged writes. One crashRun is one
// configuration — its store, its workload and at most one check of its
// own — and every configuration gets every boundary and every image.
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
//
// The vanished-log images remove one worker's log files wholesale. There
// the first invariant weakens: a rollback below an acknowledged state is
// legal only if recovery accounted for it (RecoveryStats.BrokenChains or
// MissingLogs). The other two hold on every image.

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
	s       *Store
	sess    []*Session // one per simulated worker
	hist    map[string]*keyHist
	workers int
	parts   int
	images  int // crash images recovered so far
	// The backend configuration's faulty tier, fresh for every run.
	mock *backend.Mock
	be   *backend.Wrapped
}

const tortureDir = "/data"

// tortureConfig is the store every crash test opens: synced writes and no
// background flush or maintenance, so the filesystem op stream is the
// workload's own.
func tortureConfig(fsys vfs.FS, workers, parts int) Config {
	return Config{
		Dir: tortureDir, Workers: workers, FS: fsys, SyncWrites: true,
		FlushInterval: time.Hour, MaintainEvery: -1, CheckpointParts: parts,
	}
}

// fatalDump fails the run after dumping the store's flight recorder: the
// event timeline (recovery phases, chain rollbacks, missing logs, eviction
// decisions) is the post-mortem context a torture invariant violation
// needs, and it is gone once the process exits. s is nil when no store
// opened.
func fatalDump(t *testing.T, s *Store, format string, args ...any) {
	t.Helper()
	if s != nil {
		t.Logf("store flight recorder at failure:\n%s", s.Obs().Recorder().DumpString())
	}
	t.Fatalf(format, args...)
}

func joinCols(cols [][]byte) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = string(c)
	}
	return strings.Join(parts, "|")
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
	{"keep-removes", keepRemoves},
}

// keepRemoves keeps only the pending removes: the adversarial image.
func keepRemoves(op vfs.DirOp) bool { return op.Kind == vfs.DirRemove }

// crashRun is one crash-torture configuration.
type crashRun struct {
	workers, parts int
	// start, when set, adds the configuration's own options to the store
	// the workload drives, once per run.
	start    func(tt *torture, cfg *Config)
	workload func(tt *torture) error
	// check, when set, is the configuration's own verdict on each crash
	// image, on top of the model every image is held to.
	check func(tt *torture, img *vfs.MemFS, label string)
}

// enumerate crashes the workload at boundary 1, 2, … until a run completes
// without reaching its boundary. A deterministic op stream is walked
// exactly; where part writers race, numbering varies run to run, but every
// crash still lands on some boundary and the model must hold wherever it
// lands.
func (cr crashRun) enumerate(t *testing.T) {
	for i := 1; ; i++ {
		crashed, images := cr.run(t, i)
		if !crashed {
			t.Logf("%d crash points x %d images", i-1, images)
			return
		}
		if i > 2000 {
			fatalDump(t, nil, "boundary count runaway")
		}
	}
}

// run executes the workload with a crash armed at boundary crashAt, then
// recovers every crash image, and the keep-all image once more with each
// worker's logs removed. It reports whether the crash fired and how many
// images it recovered.
func (cr crashRun) run(t *testing.T, crashAt int) (crashed bool, images int) {
	mem := vfs.NewMemFS()
	fault := vfs.NewFault(mem)
	fault.CrashAt(crashAt)
	tt := &torture{t: t, hist: map[string]*keyHist{}, workers: cr.workers, parts: cr.parts}
	cfg := tortureConfig(fault, cr.workers, cr.parts)
	if cr.start != nil {
		cr.start(tt, &cfg)
	}
	s, err := Open(cfg)
	if err != nil {
		if !errors.Is(err, vfs.ErrCrashed) {
			fatalDump(t, nil, "crashAt=%d: open: %v", crashAt, err)
		}
	} else {
		tt.open(s)
		if werr := cr.workload(tt); werr != nil && !errors.Is(werr, vfs.ErrCrashed) {
			fatalDump(t, s, "crashAt=%d: workload: %v", crashAt, werr)
		}
		// Close is part of the tortured op stream too (flushes and marks).
		if cerr := tt.close(); cerr == nil && !fault.Crashed() {
			tt.promote() // clean shutdown acknowledges everything
		}
	}
	image := func(keep func(vfs.DirOp) bool) *vfs.MemFS {
		c := mem.Clone()
		c.Crash(keep)
		return c
	}
	for _, img := range crashImages {
		label := fmt.Sprintf("crashAt=%d/%s", crashAt, img.name)
		tt.verify(image(img.keep), label, false)
		if cr.check != nil {
			cr.check(tt, image(img.keep), label)
		}
	}
	for w := 0; w < cr.workers; w++ {
		label := fmt.Sprintf("crashAt=%d/vanish-log-%d", crashAt, w)
		tt.verify(tt.vanish(image(vfs.KeepAll), w, label), label, true)
	}
	return fault.Crashed(), tt.images
}

// open starts the workload on s with one session per simulated worker.
func (tt *torture) open(s *Store) {
	tt.s = s
	tt.sess = make([]*Session, tt.workers)
	for w := range tt.sess {
		tt.sess[w] = s.Session(w)
	}
}

// close closes the workers' sessions, then the store.
func (tt *torture) close() error {
	for _, ss := range tt.sess {
		ss.Close()
	}
	return tt.s.Close()
}

func (tt *torture) histOf(key string) *keyHist {
	h := tt.hist[key]
	if h == nil {
		// put/remove pin a key to this default worker; the multi-writer
		// schedules (putW/removeW) override it per op, deliberately
		// spreading one key's records across logs.
		h = &keyHist{worker: len(tt.hist) % tt.workers, acked: -1}
		tt.hist[key] = h
	}
	return h
}

// putW writes key through worker and records the state it reads back.
func (tt *torture) putW(worker int, key string, puts ...value.ColPut) {
	h := tt.histOf(key)
	h.worker = worker
	ss := tt.sess[worker]
	ver := ss.Put([]byte(key), puts)
	v, ok := ss.GetValue([]byte(key))
	if !ok {
		fatalDump(tt.t, tt.s, "key %q vanished right after put", key)
	}
	h.states = append(h.states, kvState{ver: ver, data: joinCols(v.Cols())})
	h.dropped = false // present again, whatever a maintenance pass did before
}

func (tt *torture) put(key string, puts ...value.ColPut) {
	tt.putW(tt.histOf(key).worker, key, puts...)
}

func (tt *torture) putSimple(key, val string) {
	tt.put(key, value.ColPut{Col: 0, Data: []byte(val)})
}

// removeW removes key through worker.
func (tt *torture) removeW(worker int, key string) {
	h := tt.histOf(key)
	h.worker = worker
	if tt.sess[worker].Remove([]byte(key)) {
		h.states = append(h.states, kvState{tomb: true})
	}
}

func (tt *torture) remove(key string) {
	tt.removeW(tt.histOf(key).worker, key)
}

// frame applies ops through worker as one mixed segment, the way the server
// executes a frame's stretch of gets and puts (Session.PointBatchInto), and
// brings the model along. A put's state is the version the frame reported
// and the columns its own next get of the key read — or the store's, if the
// put was the frame's last word on the key — so a frame that writes a key
// twice must read it in between. A get is held to the state the model says
// it follows, which is the frame-order contract.
func (tt *torture) frame(worker int, ops ...frameOp) {
	sess := tt.sess[worker]
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
				fatalDump(tt.t, tt.s, "frame op %d: %q is put again at op %d with no get between", i, op.key, j)
			}
			st.data, read = res[j].data, true
		}
		if !read {
			v, ok := sess.GetValue([]byte(op.key))
			if !ok {
				fatalDump(tt.t, tt.s, "key %q vanished right after its frame", op.key)
			}
			st.data = joinCols(v.Cols())
		}
		h.states = append(h.states, st)
		h.dropped = false
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

// reopen recovers img as a store of this run's shape, with opts (if any)
// applied on top.
func (tt *torture) reopen(img vfs.FS, label string, opts func(*Config)) *Store {
	cfg := tortureConfig(img, tt.workers, tt.parts)
	if opts != nil {
		opts(&cfg)
	}
	r, err := Open(cfg)
	if err != nil {
		fatalDump(tt.t, tt.s, "%s: recovery failed: %v", label, err)
	}
	tt.images++
	return r
}

// vanish removes every log file of worker from img: the whole-log-removal
// crash image.
func (tt *torture) vanish(img *vfs.MemFS, worker int, label string) *vfs.MemFS {
	// An early crash may leave no durable directory at all — then there is
	// nothing to vanish and recovery starts from scratch anyway.
	if files, err := wal.ListLogFilesFS(img, tortureDir); err == nil {
		for _, f := range files {
			if f.Worker == worker {
				if err := img.Remove(f.Path); err != nil {
					fatalDump(tt.t, tt.s, "%s: removing %s: %v", label, f.Path, err)
				}
			}
		}
		img.SyncDir(tortureDir)
	}
	return img
}

// verify recovers img and holds it to the model. With accounted set (a
// vanished-log image) a rollback below an acknowledged state is legal
// only when recovery reports broken chains or missing logs.
func (tt *torture) verify(img *vfs.MemFS, label string, accounted bool) {
	r := tt.reopen(img, label, nil)
	defer r.Close()
	rollback := tt.exact(r, label)
	if rollback == "" {
		rollback = tt.lost(r)
	}
	if rollback == "" {
		return
	}
	if !accounted {
		fatalDump(tt.t, r, "%s: %s", label, rollback)
	}
	if st := r.RecoveryStats(); st.BrokenChains == 0 && st.MissingLogs == 0 {
		fatalDump(tt.t, r, "%s: %s, with no broken_chains/missing_logs accounting", label, rollback)
	}
}

// exact scans r and fails the run on a key that was never written or
// whose (version, columns) is no state the live store applied. It returns
// the first key recovered below its acknowledged state, "" if none.
func (tt *torture) exact(r *Store, label string) (rollback string) {
	r.Tree().Scan(nil, func(k []byte, v *value.Value) bool {
		h := tt.hist[string(k)]
		if h == nil {
			fatalDump(tt.t, r, "%s: recovered key %q that was never written", label, k)
		}
		idx := slices.IndexFunc(h.states, func(st kvState) bool { return !st.tomb && st.ver == v.Version() })
		if idx < 0 {
			fatalDump(tt.t, r, "%s: key %q recovered at version %d, matching no applied state", label, k, v.Version())
		}
		if got := joinCols(v.Cols()); got != h.states[idx].data {
			fatalDump(tt.t, r, "%s: key %q version %d recovered %q, applied state was %q (mixed columns)",
				label, k, v.Version(), got, h.states[idx].data)
		}
		if idx < h.acked && rollback == "" {
			rollback = fmt.Sprintf("key %q recovered state %d older than acknowledged state %d (lost ack)", k, idx, h.acked)
		}
		return true
	})
	return rollback
}

// lost returns the first acknowledged key absent from r that neither a
// remove at or after its ack nor a clean drop explains, "" if none.
func (tt *torture) lost(r *Store) string {
	rs := r.Session(0)
	defer rs.Close()
	for k, h := range tt.hist {
		if h.acked < 0 || h.dropped {
			continue // never acknowledged, or clean-dropped: absence is legal
		}
		if slices.ContainsFunc(h.states[h.acked:], func(st kvState) bool { return st.tomb }) {
			continue
		}
		if _, ok := rs.GetValue([]byte(k)); !ok {
			return fmt.Sprintf("acknowledged key %q lost (acked state %d of %d)", k, h.acked, len(h.states))
		}
	}
	return ""
}

// TestCrashTortureEveryBoundary enumerates every filesystem boundary of
// the single-worker, single-part workload — the op stream is deterministic
// — and crashes at each one in turn.
func TestCrashTortureEveryBoundary(t *testing.T) {
	crashRun{workers: 1, parts: 1, workload: (*torture).workload}.enumerate(t)
}

// TestCrashTortureMultiWorkerMultiPart tortures the concurrent pipeline:
// three worker logs and four checkpoint part writers. Part writers race,
// so boundary numbering varies run to run.
func TestCrashTortureMultiWorkerMultiPart(t *testing.T) {
	crashRun{workers: 3, parts: 4, workload: (*torture).workload}.enumerate(t)
}
