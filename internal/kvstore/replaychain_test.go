package kvstore

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/value"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// chainCfg opens a store over mem with logging armed and every background
// loop disabled, so tests control exactly what reaches the logs.
func chainCfg(mem vfs.FS) Config {
	return Config{Dir: "d", FS: mem, Workers: 2, SyncWrites: true,
		FlushInterval: time.Hour, MaintainEvery: -1}
}

// TestV1DirectoryRecovers is the end-to-end upgrade path: a directory whose
// only log predates the v2 format recovers exactly as it used to (unlinked
// records merge unvalidated), and the first cross-worker write over the
// recovered value anchors the chain in the new log.
func TestV1DirectoryRecovers(t *testing.T) {
	mem := vfs.NewMemFS()
	if err := mem.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	// A pre-v2 incarnation's log: worker 0 inserted col 0 then put col 1.
	v1 := []wal.Record{
		{TS: 5, Op: wal.OpInsert, Key: []byte("k"), Puts: []value.ColPut{{Col: 0, Data: []byte("a")}}},
		{TS: 7, Op: wal.OpPut, Key: []byte("k"), Puts: []value.ColPut{{Col: 1, Data: []byte("b")}}},
	}
	if err := wal.WriteLegacyLogFS(mem, filepath.Join("d", wal.LogFileName(0, 1)), v1); err != nil {
		t.Fatal(err)
	}
	s, err := Open(chainCfg(mem))
	if err != nil {
		t.Fatal(err)
	}
	if st := s.RecoveryStats(); st.BrokenChains != 0 || st.MissingLogs != 0 {
		t.Fatalf("v1 recovery stats = %+v, want zero", st)
	}
	cols, ok := s.Get([]byte("k"), nil)
	if !ok || len(cols) != 2 || string(cols[0]) != "a" || string(cols[1]) != "b" {
		t.Fatalf("v1 records did not replay byte-identically: %q ok=%v", cols, ok)
	}
	// Worker 1 writes over the value worker 0's log produced: a cross-log
	// handoff, so the new record must anchor — after the old log vanishes,
	// recovery still rebuilds the whole value from worker 1's log.
	s.Put(1, []byte("k"), []value.ColPut{{Col: 1, Data: []byte("B")}})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mem.Remove(filepath.Join("d", wal.LogFileName(0, 1))); err != nil {
		t.Fatal(err)
	}
	mem.SyncDir("d")
	r, err := Open(chainCfg(mem))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cols, ok = r.Get([]byte("k"), nil)
	if !ok || len(cols) != 2 || string(cols[0]) != "a" || string(cols[1]) != "B" {
		t.Fatalf("handoff anchor did not carry the value: %q ok=%v (stats %+v)", cols, ok, r.RecoveryStats())
	}
	if st := r.RecoveryStats(); st.BrokenChains != 0 {
		t.Fatalf("BrokenChains = %d on an anchored rebuild, want 0", st.BrokenChains)
	}
}

// logAsWorker leaves in mem's "d" one generation-1 log, written by fill and
// named as worker's, and nothing else: the state a larger incarnation's
// worker left behind. (The log is written as worker 0's and renamed; the
// logset that would report worker 0's as missing goes.)
func logAsWorker(t *testing.T, mem *vfs.MemFS, worker int, fill func(w *wal.Writer)) string {
	t.Helper()
	if err := mem.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	set, err := wal.OpenSetFS(mem, "d", 1, 1, true, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	fill(set.Writer(0))
	if err := set.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("d", wal.LogFileName(worker, 1))
	if err := mem.Rename(filepath.Join("d", wal.LogFileName(0, 1)), path); err != nil {
		t.Fatal(err)
	}
	if err := mem.Remove(filepath.Join("d", wal.LogSetFileName)); err != nil {
		t.Fatal(err)
	}
	mem.SyncDir("d")
	return path
}

// TestWorkerTagRange: the write kernel tells a cross-log handoff from a
// delta by a value's worker tag, so a worker id must reach the tag exact or
// not at all. The log of the highest id the tag holds replays under that
// id, and a write over its value by another worker anchors, so the value
// survives the log vanishing. One id further, recovery refuses the log
// rather than replay it as some other worker's, and Open refuses to run
// that many workers.
func TestWorkerTagRange(t *testing.T) {
	key := []byte("k")
	fill := func(w *wal.Writer) {
		w.AppendInsert(5, key, []value.ColPut{{Col: 0, Data: []byte("a")}})
		w.AppendPut(7, 5, key, []value.ColPut{{Col: 1, Data: []byte("b")}})
	}

	mem := vfs.NewMemFS()
	path := logAsWorker(t, mem, value.MaxWorker, fill)
	s, err := Open(chainCfg(mem))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s.GetValue(key); !ok || v.Worker() != value.MaxWorker || string(v.Col(0)) != "a" || string(v.Col(1)) != "b" {
		t.Fatalf("replayed %v tagged worker %d (ok=%v), want {a, b} tagged %d", v, v.Worker(), ok, value.MaxWorker)
	}
	s.Put(1, key, []value.ColPut{{Col: 1, Data: []byte("B")}})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mem.Remove(path); err != nil {
		t.Fatal(err)
	}
	mem.SyncDir("d")
	r, err := Open(chainCfg(mem))
	if err != nil {
		t.Fatal(err)
	}
	cols, ok := r.Get(key, nil)
	if !ok || len(cols) != 2 || string(cols[0]) != "a" || string(cols[1]) != "B" || r.RecoveryStats().BrokenChains != 0 {
		t.Fatalf("the write over worker %d's value did not anchor: %q ok=%v (stats %+v)", value.MaxWorker, cols, ok, r.RecoveryStats())
	}
	r.Close()

	mem = vfs.NewMemFS()
	path = logAsWorker(t, mem, value.MaxWorker+1, fill)
	if s, err := Open(chainCfg(mem)); err == nil {
		v, _ := s.GetValue(key)
		s.Close()
		t.Fatalf("Open replayed %s; its records are tagged worker %d", path, v.Worker())
	} else if !strings.Contains(err.Error(), path) {
		t.Fatalf("error %q does not name %s", err, path)
	}

	if s, err := Open(Config{Workers: value.MaxWorker + 2, MaintainEvery: -1}); err == nil {
		s.Close()
		t.Fatalf("Open accepted %d workers; their ids run past the tag's %d", value.MaxWorker+2, value.MaxWorker)
	}
}

// TestBrokenChainRollsBackToAnchoredPrefix hand-crafts logs whose chain is
// broken mid-key and checks replay refuses the dangling suffix: the key
// holds exactly its last anchored prefix, never a merge onto the wrong
// base, and the rollback is counted.
func TestBrokenChainRollsBackToAnchoredPrefix(t *testing.T) {
	mem := vfs.NewMemFS()
	if err := mem.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	set, err := wal.OpenSetFS(mem, "d", 1, 1, true, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	w := set.Writer(0)
	// Key "whole": its anchor will be in the vanished generation — every
	// surviving record dangles, so it must roll back to absence.
	w.AppendInsert(5, []byte("whole"), []value.ColPut{{Col: 0, Data: []byte("lost")}})
	if err := set.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
	set2, err := wal.OpenSetFS(mem, "d", 1, 2, true, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	w = set2.Writer(0)
	w.AppendPut(9, 5, []byte("whole"), []value.ColPut{{Col: 1, Data: []byte("dangling")}})
	// Key "part": anchored in the surviving generation, then one good link
	// and one broken link (its prev names a version that never replays).
	w.AppendInsert(10, []byte("part"), []value.ColPut{{Col: 0, Data: []byte("x")}})
	w.AppendPut(12, 10, []byte("part"), []value.ColPut{{Col: 1, Data: []byte("y")}})
	w.AppendPut(14, 13, []byte("part"), []value.ColPut{{Col: 0, Data: []byte("BAD")}})
	if err := set2.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := set2.Close(); err != nil {
		t.Fatal(err)
	}
	// The adversity: generation 1 vanishes wholesale.
	if err := mem.Remove(filepath.Join("d", wal.LogFileName(0, 1))); err != nil {
		t.Fatal(err)
	}
	mem.SyncDir("d")

	s, err := Open(chainCfg(mem))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, ok := s.Get([]byte("whole"), nil); ok {
		t.Error("key with no surviving anchor recovered non-absent: dangling record was applied")
	}
	cols, ok := s.Get([]byte("part"), nil)
	if !ok || len(cols) != 2 || string(cols[0]) != "x" || string(cols[1]) != "y" {
		t.Errorf("partially-anchored key = %q ok=%v, want exactly the anchored prefix {x, y}", cols, ok)
	}
	if v, ok := s.GetValue([]byte("part")); ok && v.Version() != 12 {
		t.Errorf("anchored prefix version = %d, want 12", v.Version())
	}
	if st := s.RecoveryStats(); st.BrokenChains != 2 {
		t.Errorf("BrokenChains = %d, want 2 (both keys had a broken link)", st.BrokenChains)
	}
}

// TestWidestColumnSurvivesRestart takes the widest legal value — a put to
// column value.MaxCol makes 65 535 columns, all that a u16 count can say —
// through the two on-disk writers that count a value's columns: a checkpoint
// entry, and a handoff anchor, which logs every column of the value it
// published. (A count narrowed to 0 would fail the checkpoint whole, and
// tear the log at the anchor.) One column more is a panic that names the
// format, never a record claiming no columns.
func TestWidestColumnSurvivesRestart(t *testing.T) {
	mem := vfs.NewMemFS()
	if err := mem.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := Open(chainCfg(mem))
	if err != nil {
		t.Fatal(err)
	}
	wide := []value.ColPut{{Col: 0, Data: []byte("first")}, {Col: value.MaxCol, Data: []byte("last")}}
	s.Put(0, []byte("checkpointed"), wide)
	if _, _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Put(0, []byte("anchored"), wide)
	anchor := s.Put(1, []byte("anchored"), []value.ColPut{{Col: 1, Data: []byte("second")}}) // a handoff: logged column-complete
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(chainCfg(mem))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, key := range []string{"checkpointed", "anchored"} {
		v, ok := r.GetValue([]byte(key))
		if !ok || v.NumCols() != value.MaxCol+1 || string(v.Col(0)) != "first" || string(v.Col(value.MaxCol)) != "last" {
			t.Fatalf("%s: recovered %d columns (ok=%v), want %d with both ends intact", key, v.NumCols(), ok, value.MaxCol+1)
		}
	}
	if v, _ := r.GetValue([]byte("anchored")); v.Version() != anchor || string(v.Col(1)) != "second" {
		t.Fatalf("anchored: recovered version %d column 1 %q, want the anchor's %d %q", v.Version(), v.Col(1), anchor, "second")
	}
	if st := r.RecoveryStats(); st.BrokenChains != 0 || st.MissingLogs != 0 {
		t.Fatalf("recovery stats %+v, want no broken chain and no missing log", st)
	}

	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "checkpoint entry") {
			t.Fatalf("Count16 of %d columns panicked with %q, want a panic naming the format", value.MaxCol+2, msg)
		}
	}()
	value.Count16(value.MaxCol+2, "checkpoint entry")
}

// TestPutPastMaxColRefused: a library put to column value.MaxCol+1 — single,
// conditional, or one key of a batch — panics as it enters the store, naming
// the column and the bound, and leaves nothing behind: the key is absent, no
// record of it reaches the log, no lock is held, and the same session goes
// on putting and the store restarts with exactly what was put.
func TestPutPastMaxColRefused(t *testing.T) {
	mem := vfs.NewMemFS()
	if err := mem.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := Open(chainCfg(mem))
	if err != nil {
		t.Fatal(err)
	}
	ss := s.Session(0)
	over := []value.ColPut{{Col: 0, Data: []byte("ok")}, {Col: value.MaxCol + 1, Data: []byte("over")}}
	good := []value.ColPut{{Col: 0, Data: []byte("ok")}}
	refused := func(what string, put func()) {
		t.Helper()
		defer func() {
			want := fmt.Sprintf("column %d, outside 0..%d", value.MaxCol+1, value.MaxCol)
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
				t.Errorf("%s panicked with %q, want it to say %q", what, msg, want)
			}
		}()
		put()
	}
	refused("Put", func() { ss.Put([]byte("bad"), over) })
	refused("CasPut", func() { ss.CasPut([]byte("bad"), 0, over) })
	refused("PutBatch", func() { ss.PutBatch([][]byte{[]byte("bad"), []byte("batched")}, [][]value.ColPut{over, good}) })
	refused("PointBatchInto", func() {
		ss.PointBatchInto([][]byte{[]byte("batched"), []byte("bad")}, []bool{false, true}, [][]value.ColPut{nil, over})
	})
	ss.Put([]byte("after"), good) // the border and the worker's log window were left unlocked
	ss.PutBatch([][]byte{[]byte("bad0"), []byte("batched")}, [][]value.ColPut{good, good})
	for _, k := range []string{"bad", "bad0", "after", "batched"} {
		if _, ok := ss.Get([]byte(k), nil); ok != (k != "bad") {
			t.Errorf("%q found %v after the refused puts", k, ok)
		}
	}
	want := snapshotState(s)
	ss.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(chainCfg(mem))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	diffStates(t, "after the restart", want, snapshotState(r))
}

// TestHandoffAnchorAllocs pins the cross-log handoff write path at one
// allocation per put, the packed value, like the plain logged path
// (TestPutSimpleLoggedAllocs): the column-complete anchor is encoded from
// the value's own packed columns, not from a ColPut slice built to list them.
func TestHandoffAnchorAllocs(t *testing.T) {
	mem := vfs.NewMemFS()
	if err := mem.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := Open(chainCfg(mem))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	key := []byte("pingpong")
	data := []byte("some-column-data")
	puts := []value.ColPut{{Col: 0, Data: data}}
	// Grow the log buffers past the measured volume and walk the tree path.
	for i := 0; i < 300; i++ {
		s.Put(i%2, key, puts)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Each iteration alternates workers, so every put replaces a value
	// stamped through the other worker's log: two handoff-anchor puts.
	allocs := testing.AllocsPerRun(200, func() {
		s.Put(0, key, puts)
		s.Put(1, key, puts)
	})
	if allocs > 2 {
		t.Fatalf("handoff-anchor Put allocates %.1f per pair (%.1f per put), want <= 1 per put", allocs, allocs/2)
	}
}
