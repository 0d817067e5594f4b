package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/value"
	"repro/internal/vfs"
)

func entries(n int) []Entry {
	out := make([]Entry, n)
	for i := range out {
		out[i] = Entry{
			Key:   []byte(fmt.Sprintf("key%05d", i)),
			Value: value.NewAt(uint64(i+1), []byte(fmt.Sprintf("v%d", i)), []byte("col1")),
		}
	}
	return out
}

// writeAll writes es as a one-part checkpoint on the real filesystem and
// returns the part's path.
func writeAll(t *testing.T, dir string, startTS uint64, es []Entry) string {
	t.Helper()
	writeParts(t, vfs.OS{}, dir, startTS, 1, es)
	return filepath.Join(dir, PartName(startTS, 0))
}

func TestWriteLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	es := entries(1000)
	writeAll(t, dir, 42, es)

	var got []Entry
	ts, err := LoadLatest(dir, func(e Entry) { got = append(got, e) })
	if err != nil {
		t.Fatal(err)
	}
	if ts != 42 {
		t.Fatalf("startTS = %d", ts)
	}
	if len(got) != len(es) {
		t.Fatalf("loaded %d entries", len(got))
	}
	for i := range es {
		if !bytes.Equal(got[i].Key, es[i].Key) {
			t.Fatalf("entry %d key mismatch", i)
		}
		if got[i].Value.Version() != es[i].Value.Version() {
			t.Fatalf("entry %d version mismatch", i)
		}
		if !value.Equal(got[i].Value, es[i].Value) {
			t.Fatalf("entry %d value mismatch", i)
		}
	}
}

func TestEmptyCheckpoint(t *testing.T) {
	dir := t.TempDir()
	writeAll(t, dir, 7, nil)
	ts, parts, err := Latest(vfs.OS{}, dir)
	if err != nil || ts != 7 || len(parts) != 1 || len(parts[0]) != 0 {
		t.Fatalf("ts=%d parts=%d err=%v; want one empty part at ts 7", ts, len(parts), err)
	}
}

func TestLoadLatestPicksNewest(t *testing.T) {
	dir := t.TempDir()
	writeAll(t, dir, 10, entries(5))
	writeAll(t, dir, 20, entries(7))
	n := 0
	ts, err := LoadLatest(dir, func(Entry) { n++ })
	if err != nil || ts != 20 || n != 7 {
		t.Fatalf("ts=%d n=%d err=%v", ts, n, err)
	}
}

func TestTornCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	writeAll(t, dir, 10, entries(5))
	p2 := writeAll(t, dir, 20, entries(7))
	// Truncate the newest checkpoint's part: it must be skipped entirely.
	b, _ := os.ReadFile(p2)
	os.WriteFile(p2, b[:len(b)-5], 0o644)
	ts, parts, err := Latest(vfs.OS{}, dir)
	if err != nil || ts != 10 || len(parts) != 1 || len(parts[0]) != 5 {
		t.Fatalf("ts=%d parts=%d err=%v; want the 5-entry checkpoint at ts 10", ts, len(parts), err)
	}
}

func TestCorruptBodyDetected(t *testing.T) {
	dir := t.TempDir()
	p := writeAll(t, dir, 10, entries(100))
	b, _ := os.ReadFile(p)
	b[len(b)/2] ^= 0xff
	os.WriteFile(p, b, 0o644)
	if _, _, err := read(vfs.OS{}, dir, 10); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	// No valid checkpoint remains.
	if _, _, err := Latest(vfs.OS{}, dir); !errors.Is(err, ErrNone) {
		t.Fatalf("Latest err = %v, want ErrNone", err)
	}
}

func TestNoCheckpoint(t *testing.T) {
	if _, err := LoadLatest(t.TempDir(), func(Entry) {}); !errors.Is(err, ErrNone) {
		t.Fatalf("err = %v", err)
	}
}

func TestDropOld(t *testing.T) {
	dir := t.TempDir()
	writeAll(t, dir, 10, entries(1))
	writeAll(t, dir, 20, entries(1))
	writeAll(t, dir, 30, entries(1))
	if err := DropFS(vfs.OS{}, dir, 30); err != nil {
		t.Fatal(err)
	}
	if tss, _ := list(vfs.OS{}, dir); !slices.Equal(tss, []uint64{30}) {
		t.Fatalf("after drop: %v, want [30]", tss)
	}
}

func TestNoTempLeftovers(t *testing.T) {
	dir := t.TempDir()
	writeAll(t, dir, 10, entries(10))
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if e.Name() != PartName(10, 0) && e.Name() != ManifestName(10) {
			t.Fatalf("unexpected file %s", e.Name())
		}
	}
	if len(ents) != 2 {
		t.Fatalf("%d files on disk, want the part and the manifest", len(ents))
	}
}
