package kvstore

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/value"
)

// crash simulates a crash: flush OS buffers but skip the clean-shutdown
// marks, leaving the logs exactly as a power failure after the last group
// commit would.
func crash(t *testing.T, s *Store) {
	t.Helper()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Tear down without marks: close files directly via the wal set.
	close(s.stop)
	s.wg.Wait()
	if err := s.logs.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecoveryConservativeCutoff(t *testing.T) {
	dir := t.TempDir()
	s := openDir(t, dir)
	// Worker 1 logs a single early record; worker 0 keeps writing on its own
	// clock shard (ts 1..10 on log 0, ts 1 on log 1, with background clock
	// synchronization disabled by openDir). The cutoff is the slowest log's
	// maximum timestamp, so everything beyond it must be dropped.
	s.PutSimple(1, []byte("b0"), []byte("x")) // ts 1 on log 1
	for i := 0; i < 10; i++ {
		s.PutSimple(0, []byte(fmt.Sprintf("a%d", i)), []byte("y")) // ts 1..10 on log 0
	}
	crash(t, s)

	r := openDir(t, dir)
	defer r.Close()
	// Cutoff = min(max of log0=10, max of log1=1) = 1: b0 survives, and of
	// worker 0's updates only a0 (ts 1 on its shard) makes the cut.
	if r.Len() != 2 {
		t.Fatalf("recovered %d keys, want 2 (conservative cutoff)", r.Len())
	}
	if _, ok := r.Get([]byte("b0"), nil); !ok {
		t.Fatal("b0 lost")
	}
	if _, ok := r.Get([]byte("a0"), nil); !ok {
		t.Fatal("a0 (within cutoff) lost")
	}
	if _, ok := r.Get([]byte("a5"), nil); ok {
		t.Fatal("a5 (beyond cutoff) resurrected")
	}
}

func TestCrashRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	s := openDir(t, dir)
	for i := 0; i < 100; i++ {
		s.PutSimple(0, []byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	crash(t, s)

	// Tear the last few bytes off worker 0's log, as an interrupted write
	// would.
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "log-0000") {
			p := filepath.Join(dir, e.Name())
			b, _ := os.ReadFile(p)
			os.WriteFile(p, b[:len(b)-7], 0o644)
		}
	}

	r := openDir(t, dir)
	defer r.Close()
	// The torn record (k099) is gone; everything before it survives.
	if r.Len() != 99 {
		t.Fatalf("recovered %d keys, want 99", r.Len())
	}
	if _, ok := r.Get([]byte("k099"), nil); ok {
		t.Fatal("torn record resurrected")
	}
}

func TestReopenAfterCleanCloseTwice(t *testing.T) {
	dir := t.TempDir()
	s := openDir(t, dir)
	s.PutSimple(0, []byte("k"), []byte("v1"))
	s.Close()
	s2 := openDir(t, dir)
	s2.PutSimple(0, []byte("k"), []byte("v2"))
	s2.Close()
	s3 := openDir(t, dir)
	defer s3.Close()
	got, ok := s3.Get([]byte("k"), nil)
	if !ok || string(got[0]) != "v2" {
		t.Fatalf("after two generations: %q %v", got, ok)
	}
}

func TestRecoverySurvivesCheckpointPlusCrash(t *testing.T) {
	dir := t.TempDir()
	s := openDir(t, dir)
	for i := 0; i < 200; i++ {
		s.PutSimple(0, []byte(fmt.Sprintf("k%03d", i)), []byte("pre"))
	}
	if _, _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		s.PutSimple(0, []byte(fmt.Sprintf("k%03d", i)), []byte("post"))
	}
	crash(t, s)

	r := openDir(t, dir)
	defer r.Close()
	if r.Len() != 200 {
		t.Fatalf("recovered %d keys", r.Len())
	}
	// Worker 1 logged nothing post-checkpoint, so its generation-2 log is
	// empty and does not constrain the cutoff; worker 0's updates survive.
	got, ok := r.Get([]byte("k000"), nil)
	if !ok || string(got[0]) != "post" {
		t.Fatalf("k000 = %q,%v want post", got, ok)
	}
	got, _ = r.Get([]byte("k100"), nil)
	if string(got[0]) != "pre" {
		t.Fatalf("k100 = %q want pre", got)
	}
}

func TestBackgroundFlushDurability(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Workers: 1, FlushInterval: 2 * time.Millisecond, MaintainEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	s.PutSimple(0, []byte("k"), []byte("v"))
	time.Sleep(50 * time.Millisecond) // let the background flusher run
	// Simulate a hard crash with no explicit flush at all.
	close(s.stop)
	s.wg.Wait()
	s.logs.Close()

	r := openDir(t, dir)
	defer r.Close()
	if _, ok := r.Get([]byte("k"), nil); !ok {
		t.Fatal("update lost despite background flush")
	}
}

// TestRecoveryInterleavedPutBatchRemove drives interleaved batched puts
// (every other batch a mixed frame, a third of it gets) and
// removes through multiple workers, then proves recovery replays to the
// exact pre-crash state: same key set, same bytes, and — the sharded-clock
// invariant — every key's recovered version equals its pre-crash version,
// so per-key updates replayed in version order. A clean shutdown writes
// timestamp marks, so nothing is beyond the cutoff.
func TestRecoveryInterleavedPutBatchRemove(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Workers: 3, FlushInterval: 5 * time.Millisecond, MaintainEvery: -1})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 3
	const rounds = 40
	const batch = 32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := s.Session(w)
			defer sess.Close()
			rng := rand.New(rand.NewSource(int64(w) * 99))
			keys := make([][]byte, batch)
			puts := make([][]value.ColPut, batch)
			flat := make([]value.ColPut, batch)
			put := make([]bool, batch)
			for r := 0; r < rounds; r++ {
				for i := range keys {
					// Overlapping key space across workers, layered keys
					// included; values identify writer and round.
					keys[i] = []byte(fmt.Sprintf("shared-prefix-%04d", rng.Intn(300)))
					flat[i] = value.ColPut{Col: 0, Data: []byte(fmt.Sprintf("w%d-r%03d-%d", w, r, i))}
					puts[i], put[i] = flat[i:i+1], i%3 != 0
				}
				if r%2 == 0 {
					sess.PutBatchInto(keys, puts)
				} else {
					sess.PointBatchInto(keys, put, puts)
				}
				// Interleave removes so re-inserts must version past them.
				if r%4 == w%4 {
					sess.Remove([]byte(fmt.Sprintf("shared-prefix-%04d", rng.Intn(300))))
				}
			}
		}(w)
	}
	wg.Wait()

	// Snapshot the exact pre-crash state: key -> (version, bytes).
	type kvstate struct {
		ver  uint64
		data string
	}
	want := map[string]kvstate{}
	s.Tree().Scan(nil, func(k []byte, v *value.Value) bool {
		want[string(k)] = kvstate{v.Version(), string(v.Bytes())}
		return true
	})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openDir(t, dir)
	defer r.Close()
	if r.Len() != len(want) {
		t.Fatalf("recovered %d keys, want %d", r.Len(), len(want))
	}
	got := 0
	r.Tree().Scan(nil, func(k []byte, v *value.Value) bool {
		w, ok := want[string(k)]
		if !ok {
			t.Fatalf("recovered unexpected key %q", k)
		}
		if v.Version() != w.ver {
			t.Fatalf("key %q recovered at version %d, want %d (per-key version order broken)", k, v.Version(), w.ver)
		}
		if string(v.Bytes()) != w.data {
			t.Fatalf("key %q = %q, want %q", k, v.Bytes(), w.data)
		}
		got++
		return true
	})
	if got != len(want) {
		t.Fatalf("scanned %d keys, want %d", got, len(want))
	}
}

// TestIdleLogMarksKeepCutoffFresh: a worker that stops writing must not pin
// the recovery cutoff at its last put — the maintenance loop's periodic
// timestamp marks lift every log's durable maximum to the synchronized
// clock, so the busy workers' tails survive a crash.
func TestIdleLogMarksKeepCutoffFresh(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Workers: 2, FlushInterval: 2 * time.Millisecond, MaintainEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s.PutSimple(1, []byte("idle-worker-key"), []byte("x")) // log 1 then goes idle
	for i := 0; i < 10; i++ {
		s.PutSimple(0, []byte(fmt.Sprintf("busy%02d", i)), []byte("y"))
	}
	time.Sleep(60 * time.Millisecond) // several maintenance ticks: marks + flushes
	crash(t, s)

	r := openDir(t, dir)
	defer r.Close()
	// Without marks the cutoff would be log 1's last put (ts 1) and the busy
	// worker's tail would vanish; with marks everything survives.
	if r.Len() != 11 {
		t.Fatalf("recovered %d keys, want 11 (idle log pinned the cutoff)", r.Len())
	}
}

// TestCheckpointClockSeedSurvivesRemoves: remove timestamps live in no
// value, so after a checkpoint reclaims the logs that recorded them the
// clock must be seeded from the checkpoint's start timestamp — otherwise a
// post-recovery checkpoint could carry a lower start timestamp than the
// surviving older one and the next restart would restore stale state
// (resurrecting the removed keys).
func TestCheckpointClockSeedSurvivesRemoves(t *testing.T) {
	dir := t.TempDir()
	s := openDir(t, dir)
	for i := 0; i < 10; i++ {
		s.PutSimple(0, []byte(fmt.Sprintf("ck%02d", i)), []byte("v"))
	}
	for i := 1; i < 10; i++ {
		s.Remove(0, []byte(fmt.Sprintf("ck%02d", i))) // lifts the clock past the puts
	}
	if _, _, err := s.Checkpoint(); err != nil { // reclaims the logs
		t.Fatal(err)
	}
	crash(t, s)

	r := openDir(t, dir)
	r.PutSimple(0, []byte("post-recovery"), []byte("new"))
	if _, _, err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	f := openDir(t, dir)
	defer f.Close()
	if f.Len() != 2 {
		t.Fatalf("final state has %d keys, want 2 (ck00 + post-recovery)", f.Len())
	}
	if _, ok := f.Get([]byte("post-recovery"), nil); !ok {
		t.Fatal("post-recovery write lost to a stale checkpoint")
	}
	if _, ok := f.Get([]byte("ck05"), nil); ok {
		t.Fatal("removed key resurrected by a stale checkpoint")
	}
}
