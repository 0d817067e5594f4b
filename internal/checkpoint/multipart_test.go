package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/value"
	"repro/internal/vfs"
)

const mpDir = "/ckpt"

func memDir(t *testing.T) *vfs.MemFS {
	t.Helper()
	m := vfs.NewMemFS()
	if err := m.MkdirAll(mpDir, 0o755); err != nil {
		t.Fatal(err)
	}
	return m
}

// writeParts writes es as a parts-part checkpoint into fsys's dir, split
// into parts ranges by index.
func writeParts(tb testing.TB, fsys vfs.FS, dir string, startTS uint64, parts int, es []Entry) {
	tb.Helper()
	n, err := WriteParts(fsys, dir, startTS, parts, func(k int, emit func(Entry) error) error {
		lo, hi := k*len(es)/parts, (k+1)*len(es)/parts
		for _, e := range es[lo:hi] {
			if err := emit(e); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	if n != len(es) {
		tb.Fatalf("wrote %d entries, want %d", n, len(es))
	}
}

func loadAll(t *testing.T, fsys vfs.FS) (uint64, []Entry, error) {
	t.Helper()
	ts, parts, err := Latest(fsys, mpDir)
	return ts, slices.Concat(parts...), err
}

func TestWritePartsRoundTrip(t *testing.T) {
	for _, parts := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) {
			m := memDir(t)
			es := entries(500)
			writeParts(t, m, mpDir, 99, parts, es)
			ts, got, err := loadAll(t, m)
			if err != nil || ts != 99 {
				t.Fatalf("ts=%d err=%v", ts, err)
			}
			if len(got) != len(es) {
				t.Fatalf("loaded %d entries, want %d", len(got), len(es))
			}
			for i := range es {
				if !bytes.Equal(got[i].Key, es[i].Key) || !value.Equal(got[i].Value, es[i].Value) ||
					got[i].Value.Version() != es[i].Value.Version() {
					t.Fatalf("entry %d differs", i)
				}
			}
		})
	}
}

func TestMissingPartFallsBack(t *testing.T) {
	m := memDir(t)
	writeParts(t, m, mpDir, 10, 2, entries(100))
	writeParts(t, m, mpDir, 20, 3, entries(200))
	if err := m.Remove(filepath.Join(mpDir, PartName(20, 1))); err != nil {
		t.Fatal(err)
	}
	ts, got, err := loadAll(t, m)
	if err != nil || ts != 10 || len(got) != 100 {
		t.Fatalf("ts=%d n=%d err=%v; want fallback to ts=10", ts, len(got), err)
	}
}

func TestCorruptPartFallsBack(t *testing.T) {
	m := memDir(t)
	writeParts(t, m, mpDir, 10, 2, entries(100))
	writeParts(t, m, mpDir, 20, 2, entries(200))
	p := filepath.Join(mpDir, PartName(20, 0))
	b, _ := m.ReadFile(p)
	b[len(b)/2] ^= 0xff
	f, _ := m.OpenFile(p, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	f.Write(b)
	f.Close()
	ts, got, err := loadAll(t, m)
	if err != nil || ts != 10 || len(got) != 100 {
		t.Fatalf("ts=%d n=%d err=%v; want fallback to ts=10", ts, len(got), err)
	}
}

func TestCorruptManifestFallsBack(t *testing.T) {
	m := memDir(t)
	writeParts(t, m, mpDir, 10, 1, entries(50))
	writeParts(t, m, mpDir, 20, 2, entries(60))
	p := filepath.Join(mpDir, ManifestName(20))
	b, _ := m.ReadFile(p)
	f, _ := m.OpenFile(p, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	f.Write(b[:len(b)-3]) // truncate
	f.Close()
	ts, got, err := loadAll(t, m)
	if err != nil || ts != 10 || len(got) != 50 {
		t.Fatalf("ts=%d n=%d err=%v; want fallback to ts=10", ts, len(got), err)
	}
}

func TestOrphanPartsIgnored(t *testing.T) {
	// Parts without a manifest (a crashed multi-part write) are invisible.
	m := memDir(t)
	writeParts(t, m, mpDir, 10, 1, entries(50))
	writeParts(t, m, mpDir, 20, 2, entries(60))
	if err := m.Remove(filepath.Join(mpDir, ManifestName(20))); err != nil {
		t.Fatal(err)
	}
	ts, got, err := loadAll(t, m)
	if err != nil || ts != 10 || len(got) != 50 {
		t.Fatalf("ts=%d n=%d err=%v", ts, len(got), err)
	}
}

func TestDropRemovesPartsManifestsAndTemps(t *testing.T) {
	m := memDir(t)
	writeParts(t, m, mpDir, 10, 3, entries(30))
	writeParts(t, m, mpDir, 20, 2, entries(30))
	// A stray temp from a crashed attempt and an orphan part.
	f, err := m.CreateTemp(mpDir, "ckpt-*.tmp")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("junk"))
	f.Close()
	if err := DropFS(m, mpDir, 20); err != nil {
		t.Fatal(err)
	}
	ents, _ := m.ReadDir(mpDir)
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	want := []string{PartName(20, 0), PartName(20, 1), ManifestName(20)} // ReadDir name order
	if len(names) != len(want) {
		t.Fatalf("after drop: %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("after drop: %v, want %v", names, want)
		}
	}
}

func TestWritePartsCommitLeavesNothingPending(t *testing.T) {
	m := memDir(t)
	writeParts(t, m, mpDir, 10, 4, entries(100))
	if n := len(m.PendingOps()); n != 0 {
		t.Fatalf("%d directory ops still volatile after WriteParts returned", n)
	}
	// And the whole checkpoint survives a conservative crash.
	m.Crash(nil)
	ts, got, err := loadAll(t, m)
	if err != nil || ts != 10 || len(got) != 100 {
		t.Fatalf("after crash: ts=%d n=%d err=%v", ts, len(got), err)
	}
}

// failNthCreate fails the n-th CreateTemp with a transient error (the
// process survives, unlike a vfs.Fault crash).
type failNthCreate struct {
	vfs.FS
	n     int64
	calls atomic.Int64
}

func (f *failNthCreate) CreateTemp(dir, pattern string) (vfs.File, error) {
	if f.calls.Add(1) == f.n {
		return nil, errors.New("transient: no space left on device")
	}
	return f.FS.CreateTemp(dir, pattern)
}

// TestWritePartsFailureLeaksNothing: when the manifest write fails after
// every part has been renamed into place, the renamed parts (a full store
// dump) must be removed — a periodically retried failing checkpoint must
// not monotonically fill the disk with orphans.
func TestWritePartsFailureLeaksNothing(t *testing.T) {
	m := memDir(t)
	fsys := &failNthCreate{FS: m, n: 4} // parts 1..3 succeed, manifest's temp fails
	_, err := WriteParts(fsys, mpDir, 10, 3, func(k int, emit func(Entry) error) error {
		for _, e := range entries(30)[k*10 : (k+1)*10] {
			if err := emit(e); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		t.Fatal("manifest failure not reported")
	}
	ents, _ := m.ReadDir(mpDir)
	for _, e := range ents {
		t.Errorf("leaked file after failed checkpoint: %s", e.Name())
	}
}

func TestReadValidatesBeforeApply(t *testing.T) {
	// A checkpoint with a corrupt part must apply nothing at all — the
	// load is all-or-nothing even though three of four parts are intact.
	m := memDir(t)
	writeParts(t, m, mpDir, 10, 4, entries(400))
	p := filepath.Join(mpDir, PartName(10, 3))
	b, _ := m.ReadFile(p)
	b[len(b)-1] ^= 0xff
	f, _ := m.OpenFile(p, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	f.Write(b)
	f.Close()
	_, parts, err := Latest(m, mpDir)
	if !errors.Is(err, ErrNone) {
		t.Fatalf("err = %v, want ErrNone (only checkpoint is torn)", err)
	}
	if parts != nil {
		t.Fatalf("returned %d parts of a torn checkpoint", len(parts))
	}
}
