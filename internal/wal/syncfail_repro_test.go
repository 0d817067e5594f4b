package wal

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/clock"
	"repro/internal/vfs"
)

// Repro: a Sync failure (write succeeded, force failed) must not lose
// subsequently appended records.
func TestSyncFailureThenRecover(t *testing.T) {
	dir := t.TempDir()
	w, err := newWriter(vfs.OS{}, dir, 0, 1, true, 0, clock.Wall{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	insertOne(w, 1, []byte("a"), nil)
	// Replace the fd with a read-only one so Write succeeds? Simpler: make
	// Sync fail by using a file opened read... instead swap f for one where
	// Write works but Sync fails: use /dev/null? Sync on /dev/null succeeds.
	// Use a pipe: writes succeed, Sync fails with EINVAL.
	r, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	real := w.f
	w.f = vfs.NewOSFile(pw)
	if err := w.Flush(); err == nil {
		t.Fatal("expected sync failure on pipe")
	}
	pw.Close()
	w.f = real

	// Subsequent records must survive into the real log.
	insertOne(w, 2, []byte("b"), nil)
	if err := w.Flush(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	w.sync = false
	data, err := os.ReadFile(filepath.Join(dir, LogFileName(0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	b := data[len(fileMagic):]
	for len(b) > 0 {
		rec, n := parseRecord(b)
		if n == 0 {
			break
		}
		if rec.TS == 2 {
			found = true
		}
		b = b[n:]
	}
	if !found {
		t.Fatalf("record ts=2 lost after transient sync failure; log bytes=%d", len(data))
	}
}
