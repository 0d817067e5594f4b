package wal

import (
	"errors"
	"io/fs"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vfs"
)

// flakyFS wraps a vfs.FS and fails every File.Write while failing is set — a
// transiently sick device the writer must back off from, then drain cleanly
// once it heals. (vfs.Fault latches permanently, so it cannot model a device
// that recovers.)
type flakyFS struct {
	vfs.FS
	failing atomic.Bool
}

var errFlaky = errors.New("flaky: injected write failure")

func (f *flakyFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &flakyFile{File: file, fs: f}, nil
}

type flakyFile struct {
	vfs.File
	fs *flakyFS
}

func (f *flakyFile) Write(p []byte) (int, error) {
	if f.fs.failing.Load() {
		return 0, errFlaky
	}
	return f.File.Write(p)
}

// Regression: a failed flush must (1) count into FlushStats, (2) arm a
// backoff window the background flusher honors (no hammering a sick device),
// (3) count foreground retries into FlushRetries, and (4) lose nothing —
// once the device heals, every appended record reaches the log exactly once.
func TestFlushRetryBackoff(t *testing.T) {
	fsys := &flakyFS{FS: vfs.NewMemFS()}
	if err := fsys.MkdirAll("wal", 0o755); err != nil {
		t.Fatal(err)
	}
	// flushEvery is huge so the ticker never races the test's explicit calls.
	w, err := newWriter(fsys, "wal", 0, 1, false, time.Hour, true)
	if err != nil {
		t.Fatal(err)
	}

	w.AppendPut(1, 0, []byte("a"), nil)
	fsys.failing.Store(true)
	if err := w.Flush(); err == nil {
		t.Fatal("expected injected write failure")
	}
	if errs, last := w.FlushStats(); errs != 1 || !errors.Is(last, errFlaky) {
		t.Fatalf("FlushStats = (%d, %v), want (1, errFlaky)", errs, last)
	}
	if w.backoff != retryBase {
		t.Fatalf("backoff = %v after first failure, want %v", w.backoff, retryBase)
	}
	if err := w.Flush(); err == nil {
		t.Fatal("expected second injected failure")
	}
	if got := w.FlushRetries(); got != 1 {
		t.Fatalf("FlushRetries = %d after one retry, want 1", got)
	}
	if w.backoff != 2*retryBase {
		t.Fatalf("backoff = %v after second failure, want %v", w.backoff, 2*retryBase)
	}

	// The device heals, but the backoff window is still pending: a background
	// flush must skip the attempt (deterministic — retryAt is ~100ms out).
	fsys.failing.Store(false)
	w.AppendPut(2, 0, []byte("b"), nil)
	w.flushBackground()
	if errs, _ := w.FlushStats(); errs != 2 {
		t.Fatalf("background flush ran inside the backoff window (errs=%d)", errs)
	}
	if data, err := fsys.ReadFile("wal/" + LogFileName(0, 1)); err == nil && len(data) > len(fileMagic) {
		t.Fatal("bytes reached the file during the backoff window")
	}

	// A foreground flush ignores the window, counts as a retry, drains the
	// held-back batch, and resets the backoff.
	if err := w.Flush(); err != nil {
		t.Fatalf("flush after heal: %v", err)
	}
	if got := w.FlushRetries(); got != 2 {
		t.Fatalf("FlushRetries = %d after healed retry, want 2", got)
	}
	if w.backoff != 0 || !w.retryAt.IsZero() {
		t.Fatalf("backoff not reset after success: %v until %v", w.backoff, w.retryAt)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Nothing lost, nothing duplicated: exactly records ts=1 and ts=2.
	data, err := fsys.ReadFile("wal/" + LogFileName(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	b := data[len(fileMagic):]
	for len(b) > 0 {
		rec, n := parseRecord(b)
		if n == 0 {
			t.Fatalf("corrupt record framing at offset %d", len(data)-len(b))
		}
		got = append(got, rec.TS)
		b = b[n:]
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("log holds records %v, want [1 2]", got)
	}
}

// Backoff growth is capped at retryMaxBackoff no matter how long the device
// stays down.
func TestFlushRetryBackoffCap(t *testing.T) {
	fsys := &flakyFS{FS: vfs.NewMemFS()}
	if err := fsys.MkdirAll("wal", 0o755); err != nil {
		t.Fatal(err)
	}
	w, err := newWriter(fsys, "wal", 0, 1, false, time.Hour, true)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		fsys.failing.Store(false)
		w.Close()
	}()
	w.AppendPut(1, 0, []byte("a"), nil)
	fsys.failing.Store(true)
	for i := 0; i < 12; i++ {
		if err := w.Flush(); err == nil {
			t.Fatal("expected injected failure")
		}
	}
	if w.backoff != retryMaxBackoff {
		t.Fatalf("backoff = %v after 12 failures, want cap %v", w.backoff, retryMaxBackoff)
	}
}
