package kvstore

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/clock"
	"repro/internal/model"
	"repro/internal/value"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// The crash-point torture harness: run a workload over the injectable
// filesystem, kill the store at every write/fsync/rename boundary, recover
// from every legal post-crash disk image, and check the recovered store
// against the reference model (internal/model). One crashRun is one
// configuration — its store, its workload and at most one check of its
// own — and every configuration gets every boundary and every image.
//
// The model computes each write's state from the write's own inputs — its
// columns, the version the store drew, the expiry — and the store's
// read-back is held to that state on the spot. Invariants, per key:
//   - No lost acks: the recovered state is never older than the last
//     acknowledged state (a write is acknowledged once a Flush with
//     SyncWrites, or a completed checkpoint, covered it).
//   - No resurrections: keys never written do not appear; acknowledged
//     removes stay removed (unless a later applied write re-created the
//     key).
//   - States the model computed only: a recovered value's version, expiry
//     and columns must exactly equal some state the model computed for the
//     key — versions never mix with other states' data.
//
// Evictions and the TTL sweep are clean drops, and the model cannot predict
// them: a workload that runs them observes which keys went and tells the
// model (model.Evict). A dropped key may be absent after a crash.
//
// The vanished-log images remove one worker's log files wholesale. There
// the first invariant weakens: a rollback below an acknowledged state is
// legal only if recovery accounted for it (RecoveryStats.BrokenChains or
// MissingLogs). The other two hold on every image.

type torture struct {
	mirror  // of the store the workload drives, one session per simulated worker
	workers int
	parts   int
	images  int         // crash images recovered so far
	wall    *clock.Fake // every store of the run reads it; nothing advances it
	// The backend configuration's faulty tier, fresh for every run.
	mock *backend.Mock
	be   *backend.Wrapped
}

const tortureDir = "/data"

// tortureConfig is the store every crash test opens: synced writes. On the
// fake clock the run opens it on, no background flush or maintenance runs,
// so the filesystem op stream is the workload's own.
func tortureConfig(fsys vfs.FS, workers int) Config {
	return Config{Dir: tortureDir, Workers: workers, FS: fsys, SyncWrites: true}
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
	tt := &torture{mirror: mirror{t: t, ref: model.NewHistory(), worker: map[string]int{}}, workers: cr.workers, parts: cr.parts, wall: clock.NewFake()}
	cfg := tortureConfig(fault, cr.workers)
	if cr.start != nil {
		cr.start(tt, &cfg)
	}
	s, err := open(cfg, tt.wall)
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
		if cerr := tt.s.Close(); cerr == nil && !fault.Crashed() {
			tt.ref.Ack() // clean shutdown acknowledges everything
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
func (tt *torture) open(s *Store) { tt.s, tt.sess = s, sessions(s, tt.workers) }

// ack makes everything applied so far durable: a timestamp mark in every
// log (so no idle log pins the recovery cutoff) followed by a synced
// flush. Only on success does the model consider the writes acknowledged.
func (tt *torture) ack() error {
	tt.s.logs.Mark(tt.s.clock.max())
	if err := tt.s.Flush(); err != nil {
		return err
	}
	tt.ref.Ack()
	return nil
}

// ckpt checkpoints; on success everything applied before it is durable
// (the fuzzy scan ran with no concurrent writers here).
func (tt *torture) ckpt() error {
	if _, _, err := tt.s.CheckpointN(tt.parts); err != nil {
		return err
	}
	tt.ref.Ack()
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
	// A partial-column put over a value that has lapsed but is still in the
	// tree (no sweep runs here): it builds on nothing, so the lapsed column 0
	// must not come back, live or after a crash.
	tt.putTTL("lapsed", "r2-dead", nanosIn(tt.s, -time.Second))
	tt.put("lapsed", value.ColPut{Col: 1, Data: []byte("r2-c1")})
	// A mixed frame over the same state: a same-key put pair of partial
	// columns with a get between, a get of a removed key, an insert.
	tt.frame(tt.workerOf("k04"),
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
	tt.frame(tt.workerOf("k08"),
		putOp("k08", value.ColPut{Col: 1, Data: []byte("f4-c1")}), getOp("k01"), getOp("k08"),
		putOp("k08", value.ColPut{Col: 2, Data: []byte("f4-c2")}), putOp("k01", value.ColPut{Col: 0, Data: []byte("f4-reborn")}))
	if err := tt.ack(); err != nil {
		return err
	}
	// Phase 5: applied but never acknowledged (may or may not survive).
	tt.putSimple("k00", "r5-pending")
	tt.putSimple("pending-new", "r5-new")
	tt.frame(tt.workerOf("k02"),
		putOp("k02", value.ColPut{Col: 1, Data: []byte("f5-pending")}), getOp("k02"),
		putOp("k02", value.ColPut{Col: 0, Data: []byte("f5-pending-too")}))
	return nil
}

// reopen recovers img as a store of this run's shape, with opts (if any)
// applied on top.
func (tt *torture) reopen(img vfs.FS, label string, opts func(*Config)) *Store {
	cfg := tortureConfig(img, tt.workers)
	if opts != nil {
		opts(&cfg)
	}
	r, err := open(cfg, tt.wall)
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

// verify recovers img and holds it to the model. On a vanished-log image
// a rollback below an acknowledged state is legal only when recovery
// reports broken chains or missing logs.
func (tt *torture) verify(img *vfs.MemFS, label string, vanished bool) {
	r := tt.reopen(img, label, nil)
	defer r.Close()
	st := r.RecoveryStats()
	accounted := vanished && (st.BrokenChains != 0 || st.MissingLogs != 0)
	if vanished && !accounted {
		label += " (recovery counted no broken chain and no missing log)"
	}
	tt.judge(r, label, accounted, true)
}

// judge holds every key r recovered, lapsed or not, to the model's rule for
// recovered states, and with absent set every key the model wrote that r
// does not hold too. rollbackOK forgives a state below the acknowledged one.
func (tt *torture) judge(r *Store, label string, rollbackOK, absent bool) {
	held := map[string]bool{}
	r.Tree().Scan(nil, func(k []byte, v *value.Value) bool {
		held[string(k)] = true
		st := stateOf(v)
		if err := tt.ref.Recovered(string(k), &st, rollbackOK); err != nil {
			fatalDump(tt.t, r, "%s: %v", label, err)
		}
		return true
	})
	if !absent {
		return
	}
	for _, k := range tt.ref.Written() {
		if held[k] {
			continue
		}
		if err := tt.ref.Recovered(k, nil, rollbackOK); err != nil {
			fatalDump(tt.t, r, "%s: %v", label, err)
		}
	}
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
