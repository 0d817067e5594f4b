package kvstore

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/value"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// Regression tests for the directory-fsync bugs: the checkpoint writer used
// to fsync the checkpoint file but never the directory after the rename, and
// the wal never fsynced the directory after creating a log file. A crash
// could then remember the log reclamation that followed a checkpoint while
// forgetting the checkpoint itself — losing acknowledged writes.

func openTortureStore(t *testing.T, fsys vfs.FS) *Store {
	t.Helper()
	s, err := Open(tortureConfig(fsys, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkpointThenCrash acks one write, checkpoints (which reclaims the log
// that held it), and crashes keeping only the pending remove ops — the
// adversarial but POSIX-legal image where reclamation persisted and
// nothing else did.
func checkpointThenCrash(t *testing.T, mem *vfs.MemFS, fsys vfs.FS) *vfs.MemFS {
	t.Helper()
	s := openTortureStore(t, fsys)
	ss := sessions(s, 1)[0]
	ss.PutSimple([]byte("precious"), []byte("acked"))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// The flush was synced: the write is acknowledged as durable.
	if _, _, err := s.CheckpointN(1); err != nil {
		t.Fatal(err)
	}
	img := mem.Clone()
	img.Crash(keepRemoves)
	s.Close()
	return img
}

// TestLostCheckpointWithoutDirSync proves the pre-fix scenario: with
// directory fsyncs elided (vfs.Fault.SkipDirSyncs — exactly what the code
// did before it issued any), the checkpoint rename and the log file
// creation are volatile while the log removal persists, and the
// acknowledged write is gone after recovery.
func TestLostCheckpointWithoutDirSync(t *testing.T) {
	mem := vfs.NewMemFS()
	fault := vfs.NewFault(mem)
	fault.SkipDirSyncs = true
	img := checkpointThenCrash(t, mem, fault)

	r := openTortureStore(t, img)
	rs := sessions(r, 1)[0]
	defer r.Close()
	if _, ok := rs.GetValue([]byte("precious")); ok {
		t.Fatal("write survived without dir syncs — the lost-checkpoint scenario no longer reproduces, " +
			"so this regression test has lost its teeth")
	}
}

// TestCheckpointSurvivesDirSyncedCrash is the post-fix half: the same
// sequence on a filesystem with working directory fsyncs keeps the
// acknowledged write under every crash image, because the checkpoint
// commit (rename + dir sync) is ordered before log reclamation.
func TestCheckpointSurvivesDirSyncedCrash(t *testing.T) {
	mem := vfs.NewMemFS()
	img := checkpointThenCrash(t, mem, mem)

	r := openTortureStore(t, img)
	rs := sessions(r, 1)[0]
	defer r.Close()
	if got, ok := rs.GetValue([]byte("precious")); !ok || string(got.Col(0)) != "acked" {
		t.Fatalf("acknowledged write lost across checkpoint+crash: %q, %v", got, ok)
	}
}

// TestCheckpointLeavesNothingPending asserts the commit-point invariant
// directly: once Checkpoint returns, no directory operation is volatile —
// the checkpoint (part and manifest renames) and the new log generation
// were dir-synced at the commit point, and the reclamation removes were
// dir-synced after it, so no crash image can differ from the steady state.
func TestCheckpointLeavesNothingPending(t *testing.T) {
	mem := vfs.NewMemFS()
	s := openTortureStore(t, mem)
	ss := sessions(s, 1)[0]
	defer s.Close()
	for i := 0; i < 10; i++ {
		ss.PutSimple([]byte{byte('a' + i)}, []byte("v"))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.CheckpointN(1); err != nil {
		t.Fatal(err)
	}
	for _, op := range mem.PendingOps() {
		t.Errorf("volatile %s of %s after checkpoint returned", op.Kind, op.Name)
	}
}

// TestResurrectedOldLogDoesNotDragCutoff: a checkpoint's reclamation
// removes are volatile directory ops until synced, so a crash can bring a
// pre-checkpoint log generation back from the dead. Its stale timestamps
// must not constrain the recovery cutoff — otherwise an idle worker's
// resurrected log (max ts far below the checkpoint) would discard every
// busier log's durable post-checkpoint tail.
func TestResurrectedOldLogDoesNotDragCutoff(t *testing.T) {
	mem := vfs.NewMemFS()
	s, err := Open(tortureConfig(mem, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	ss := sessions(s, 2)
	ss[1].PutSimple([]byte("idle-worker-key"), []byte("old")) // worker 1 then goes idle
	for i := 0; i < 5; i++ {
		ss[0].PutSimple([]byte(fmt.Sprintf("busy%02d", i)), []byte("pre"))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Acked post-checkpoint tail on worker 0 only; worker 1 logs nothing.
	for i := 0; i < 5; i++ {
		ss[0].PutSimple([]byte(fmt.Sprintf("busy%02d", i)), []byte("post"))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Simulate the resurrection: recreate worker 1's generation-1 log
	// holding only its stale pre-checkpoint record, exactly as a crash
	// image that forgot the reclamation remove would contain.
	old, err := wal.OpenSetFS(mem, tortureDir, 2, 1, true, time.Hour, clock.Wall{})
	if err != nil {
		t.Fatal(err)
	}
	b := old.Writer(1).Begin()
	b.Insert(1, []byte("idle-worker-key"), []value.ColPut{{Col: 0, Data: []byte("old")}}, nil, false, 0)
	b.End()
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	crash(t, s)

	rec := mustOpen(t, Config{Dir: tortureDir, Workers: 2, FS: mem, MaintainEvery: -1, FlushInterval: time.Hour})
	defer rec.Close()
	recs := sessions(rec, 1)[0]
	for i := 0; i < 5; i++ {
		got, ok := recs.GetValue([]byte(fmt.Sprintf("busy%02d", i)))
		if !ok || string(got.Col(0)) != "post" {
			t.Fatalf("busy%02d = %q,%v; resurrected idle log dragged the cutoff below the acked tail", i, got, ok)
		}
	}
	if got, ok := recs.GetValue([]byte("idle-worker-key")); !ok || string(got.Col(0)) != "old" {
		t.Fatalf("idle-worker-key = %q,%v", got, ok)
	}
}

// TestAckedFlushSurvivesConservativeCrash: the wal half of the fix. A
// synced flush into a freshly created log file must survive the most
// conservative crash image (no pending directory op persisted) — which it
// only does because log creation dir-syncs before anything is logged.
func TestAckedFlushSurvivesConservativeCrash(t *testing.T) {
	mem := vfs.NewMemFS()
	s := openTortureStore(t, mem)
	ss := sessions(s, 1)[0]
	ss.PutSimple([]byte("k"), []byte("v"))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	img := mem.Clone()
	img.Crash(nil)
	s.Close()

	r := openTortureStore(t, img)
	rs := sessions(r, 1)[0]
	defer r.Close()
	if _, ok := rs.GetValue([]byte("k")); !ok {
		t.Fatal("synced flush lost: log file creation was not made durable")
	}
}
