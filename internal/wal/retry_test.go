package wal

import (
	"errors"
	"io/fs"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
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
// backoff window the background flusher honors (no hammering a sick device)
// until the window's last instant and no longer, (3) count retries into
// FlushRetries, (4) let a foreground flush ignore the window, and (5) lose
// nothing — once the device heals, every appended record reaches the log
// exactly once.
func TestFlushRetryBackoff(t *testing.T) {
	fsys := &flakyFS{FS: vfs.NewMemFS()}
	if err := fsys.MkdirAll("wal", 0o755); err != nil {
		t.Fatal(err)
	}
	// The fake clock never reaches the flush interval, so the ticker never
	// races the test's explicit background flushes.
	wall := clock.NewFake()
	w, err := newWriter(fsys, "wal", 0, 1, false, time.Hour, wall)
	if err != nil {
		t.Fatal(err)
	}
	logged := func() int {
		data, _ := fsys.ReadFile("wal/" + LogFileName(0, 1))
		return len(data)
	}

	insertOne(w, 1, []byte("a"), nil)
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

	// The device heals, but the backoff window is still pending: at its last
	// instant, retryAt - 1ns, the background flush skips the attempt.
	fsys.failing.Store(false)
	insertOne(w, 2, []byte("b"), nil)
	wall.Advance(2*retryBase - 1)
	w.flushBackground()
	if errs, _ := w.FlushStats(); errs != 2 || w.FlushRetries() != 1 {
		t.Fatalf("background flush ran inside the backoff window (errs=%d)", errs)
	}
	if logged() > len(fileMagic) {
		t.Fatal("bytes reached the file during the backoff window")
	}
	// At retryAt it writes the held-back batch, counts a retry, and resets
	// the backoff.
	wall.Advance(1)
	w.flushBackground()
	if got := w.FlushRetries(); got != 2 {
		t.Fatalf("FlushRetries = %d after the background retry, want 2", got)
	}
	if w.backoff != 0 || !w.retryAt.IsZero() {
		t.Fatalf("backoff not reset after success: %v until %v", w.backoff, w.retryAt)
	}
	if logged() <= len(fileMagic) {
		t.Fatal("the background retry at retryAt wrote nothing")
	}

	// A foreground flush ignores the window, counts as a retry, drains the
	// held-back batch, and resets the backoff.
	insertOne(w, 3, []byte("c"), nil)
	fsys.failing.Store(true)
	if err := w.Flush(); err == nil {
		t.Fatal("expected a third injected failure")
	}
	fsys.failing.Store(false)
	if err := w.Flush(); err != nil {
		t.Fatalf("flush after heal: %v", err)
	}
	if got := w.FlushRetries(); got != 3 {
		t.Fatalf("FlushRetries = %d after healed retry, want 3", got)
	}
	if w.backoff != 0 || !w.retryAt.IsZero() {
		t.Fatalf("backoff not reset after success: %v until %v", w.backoff, w.retryAt)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Nothing lost, nothing duplicated: exactly records ts=1, 2 and 3.
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
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("log holds records %v, want [1 2 3]", got)
	}
}

// Backoff growth is capped at retryMaxBackoff no matter how long the device
// stays down, and the background flusher waits out exactly the cap.
func TestFlushRetryBackoffCap(t *testing.T) {
	fsys := &flakyFS{FS: vfs.NewMemFS()}
	if err := fsys.MkdirAll("wal", 0o755); err != nil {
		t.Fatal(err)
	}
	wall := clock.NewFake()
	w, err := newWriter(fsys, "wal", 0, 1, false, time.Hour, wall)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		fsys.failing.Store(false)
		w.Close()
	}()
	insertOne(w, 1, []byte("a"), nil)
	fsys.failing.Store(true)
	for i := 0; i < 12; i++ {
		if err := w.Flush(); err == nil {
			t.Fatal("expected injected failure")
		}
	}
	if w.backoff != retryMaxBackoff {
		t.Fatalf("backoff = %v after 12 failures, want cap %v", w.backoff, retryMaxBackoff)
	}
	wall.Advance(retryMaxBackoff - 1)
	w.flushBackground()
	if errs, _ := w.FlushStats(); errs != 12 {
		t.Fatalf("background flush ran inside the capped window (errs=%d)", errs)
	}
	wall.Advance(1)
	w.flushBackground()
	if errs, _ := w.FlushStats(); errs != 13 || w.backoff != retryMaxBackoff {
		t.Fatalf("after the capped window: errs=%d backoff=%v, want 13 and the cap", errs, w.backoff)
	}
}
