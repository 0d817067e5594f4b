package vfs

import (
	"errors"
	"io/fs"
	"os"
	"testing"
)

func writeFile(t *testing.T, m FS, name, data string, sync bool) {
	t.Helper()
	f, err := m.OpenFile(name, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(data)); err != nil {
		t.Fatal(err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func newDir(t *testing.T) *MemFS {
	t.Helper()
	m := NewMemFS()
	if err := m.MkdirAll("/data", 0o755); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMemFSUnsyncedDataLostAtCrash(t *testing.T) {
	m := newDir(t)
	writeFile(t, m, "/data/a", "hello", true)
	if err := m.SyncDir("/data"); err != nil {
		t.Fatal(err)
	}
	// Append more without syncing.
	f, _ := m.OpenFile("/data/a", os.O_WRONLY, 0)
	f.Write([]byte(" world"))
	f.Close()
	m.Crash(nil)
	b, err := m.ReadFile("/data/a")
	if err != nil || string(b) != "hello" {
		t.Fatalf("after crash: %q, %v (want synced prefix only)", b, err)
	}
}

func TestMemFSCreateNotDurableWithoutDirSync(t *testing.T) {
	m := newDir(t)
	writeFile(t, m, "/data/a", "hello", true) // file data synced, dir not
	m.Crash(nil)
	if _, err := m.ReadFile("/data/a"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("file created without dir sync survived crash: %v", err)
	}
}

func TestMemFSRenameRollsBackWithoutDirSync(t *testing.T) {
	m := newDir(t)
	writeFile(t, m, "/data/tmp1", "v", true)
	if err := m.SyncDir("/data"); err != nil {
		t.Fatal(err)
	}
	if err := m.Rename("/data/tmp1", "/data/final"); err != nil {
		t.Fatal(err)
	}
	m.Crash(nil)
	if _, err := m.ReadFile("/data/final"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("un-synced rename survived crash")
	}
	if b, err := m.ReadFile("/data/tmp1"); err != nil || string(b) != "v" {
		t.Fatalf("old name lost: %q, %v", b, err)
	}
}

func TestMemFSCrashCanPersistAnySubset(t *testing.T) {
	// The dangerous POSIX reality: a crash may persist a later remove while
	// forgetting an earlier rename.
	m := newDir(t)
	writeFile(t, m, "/data/log", "records", true)
	if err := m.SyncDir("/data"); err != nil {
		t.Fatal(err)
	}
	writeFile(t, m, "/data/ckpt.tmp", "ckpt", true)
	if err := m.Rename("/data/ckpt.tmp", "/data/ckpt"); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("/data/log"); err != nil {
		t.Fatal(err)
	}
	img := m.Clone()
	img.Crash(func(op DirOp) bool { return op.Kind == DirRemove })
	if _, err := img.ReadFile("/data/log"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("remove selected by the crash predicate did not persist")
	}
	if _, err := img.ReadFile("/data/ckpt"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("rename not selected by the crash predicate persisted anyway")
	}
	// The conservative image of the same pre-crash state keeps the log.
	m.Crash(nil)
	if b, err := m.ReadFile("/data/log"); err != nil || string(b) != "records" {
		t.Fatalf("conservative image lost the log: %q, %v", b, err)
	}
}

func TestMemFSSyncDirMakesOpsDurable(t *testing.T) {
	m := newDir(t)
	writeFile(t, m, "/data/a", "v1", true)
	if err := m.Rename("/data/a", "/data/b"); err != nil {
		t.Fatal(err)
	}
	if err := m.SyncDir("/data"); err != nil {
		t.Fatal(err)
	}
	if n := len(m.PendingOps()); n != 0 {
		t.Fatalf("%d ops still pending after SyncDir", n)
	}
	m.Crash(nil)
	if b, err := m.ReadFile("/data/b"); err != nil || string(b) != "v1" {
		t.Fatalf("synced rename lost: %q, %v", b, err)
	}
}

func TestMemFSHandleStaleAfterCrash(t *testing.T) {
	m := newDir(t)
	f, err := m.OpenFile("/data/a", os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	m.Crash(nil)
	if _, err := f.Write([]byte("x")); err == nil {
		t.Fatal("write through pre-crash handle succeeded")
	}
}

func TestMemFSDurableEntryNeverSyncedContentIsEmpty(t *testing.T) {
	m := newDir(t)
	writeFile(t, m, "/data/log", "unsynced bytes", false)
	if err := m.SyncDir("/data"); err != nil { // entry durable, content not
		t.Fatal(err)
	}
	m.Crash(nil)
	b, err := m.ReadFile("/data/log")
	if err != nil || len(b) != 0 {
		t.Fatalf("never-synced file content after crash: %q, %v (want empty)", b, err)
	}
}

func TestFaultCrashAtEachBoundary(t *testing.T) {
	workload := func(m FS) error {
		f, err := m.OpenFile("/data/a", os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write([]byte("x")); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		if err := m.Rename("/data/a", "/data/b"); err != nil {
			return err
		}
		return m.SyncDir("/data")
	}
	// Count pass.
	fault := NewFault(newDir(t))
	if err := workload(fault); err != nil {
		t.Fatal(err)
	}
	total := fault.Ops()
	if total != 4 { // create, write, sync, rename, syncdir minus... create+write+sync+rename+syncdir = 5
		t.Logf("boundaries: %v", fault.Trace())
	}
	if total < 4 {
		t.Fatalf("expected >= 4 boundaries, got %d", total)
	}
	for i := 1; i <= total; i++ {
		mem := newDir(t)
		fault := NewFault(mem)
		fault.CrashAt(i)
		err := workload(fault)
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("crashAt=%d: err = %v, want ErrCrashed", i, err)
		}
		if !fault.Crashed() {
			t.Fatalf("crashAt=%d: not latched", i)
		}
		// Post-crash: everything fails.
		if _, err := fault.ReadFile("/data/a"); !errors.Is(err, ErrCrashed) {
			t.Fatalf("crashAt=%d: read after crash: %v", i, err)
		}
		mem.Crash(nil)
		// The conservative image never contains the un-committed rename.
		if _, err := mem.ReadFile("/data/b"); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("crashAt=%d: rename leaked into conservative image: %v", i, err)
		}
	}
}

func TestFaultSkipDirSyncs(t *testing.T) {
	mem := newDir(t)
	fault := NewFault(mem)
	fault.SkipDirSyncs = true
	writeFile(t, fault, "/data/a", "v", true)
	if err := fault.SyncDir("/data"); err != nil {
		t.Fatal(err)
	}
	if n := len(mem.PendingOps()); n != 1 {
		t.Fatalf("SkipDirSyncs: %d pending ops, want 1 (create still volatile)", n)
	}
}

func TestOSFSSmoke(t *testing.T) {
	dir := t.TempDir()
	var o OS
	f, err := o.CreateTemp(dir, "t-*.tmp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if sz, err := f.Size(); err != nil || sz != 3 {
		t.Fatalf("size %d, %v", sz, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := o.Rename(f.Name(), dir+"/final"); err != nil {
		t.Fatal(err)
	}
	if err := o.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	b, err := o.ReadFile(dir + "/final")
	if err != nil || string(b) != "abc" {
		t.Fatalf("%q %v", b, err)
	}
	ents, err := o.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("%v %v", ents, err)
	}
	if err := o.Remove(dir + "/final"); err != nil {
		t.Fatal(err)
	}
}

var errStep = errors.New("injected step failure")

// failStep passes every operation through to FS except the one named by
// step — "create", "write", "sync", "close" or "rename" — which fails with
// errStep. A close that fails still closes the file underneath.
type failStep struct {
	FS
	step string
}

type failStepFile struct {
	File
	step string
}

func (f failStep) CreateTemp(dir, pattern string) (File, error) {
	if f.step == "create" {
		return nil, errStep
	}
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return failStepFile{file, f.step}, nil
}

func (f failStep) Rename(oldpath, newpath string) error {
	if f.step == "rename" {
		return errStep
	}
	return f.FS.Rename(oldpath, newpath)
}

func (f failStepFile) Write(p []byte) (int, error) {
	if f.step == "write" {
		return 0, errStep
	}
	return f.File.Write(p)
}

func (f failStepFile) Sync() error {
	if f.step == "sync" {
		return errStep
	}
	return f.File.Sync()
}

func (f failStepFile) Close() error {
	if err := f.File.Close(); err != nil || f.step != "close" {
		return err
	}
	return errStep
}

// TestWriteFileAtomicLeavesNoTemp fails each step of the commit in turn:
// every failure is reported and leaves the directory empty, temp file
// included, and a commit with no failure leaves exactly the named file.
func TestWriteFileAtomicLeavesNoTemp(t *testing.T) {
	for _, step := range []string{"create", "write", "sync", "close", "rename", ""} {
		m := newDir(t)
		err := WriteFileAtomic(failStep{m, step}, "/data", "x-*.tmp", "x", []byte("payload"))
		ents, _ := m.ReadDir("/data")
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		if step == "" {
			if b, rerr := m.ReadFile("/data/x"); err != nil || len(names) != 1 || string(b) != "payload" {
				t.Fatalf("clean commit: err %v, files %v, x = %q (%v)", err, names, b, rerr)
			}
			continue
		}
		if !errors.Is(err, errStep) {
			t.Errorf("%s fails: err = %v, want the injected failure", step, err)
		}
		if len(names) != 0 {
			t.Errorf("%s fails: left %v behind", step, names)
		}
	}
}
