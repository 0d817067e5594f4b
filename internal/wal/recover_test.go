package wal

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/value"
	"repro/internal/vfs"
)

// TestTwoLogsReplayAsOneStream puts two workers' logs in one directory and
// checks they parse into one record stream: the cutoff is the smaller of the
// two logs' maxima, every record carries the worker whose log held it, and a
// linked put keeps its prev link. The directory has no logset, so the
// missing-log check is off.
func TestTwoLogsReplayAsOneStream(t *testing.T) {
	mem := vfs.NewMemFS()
	dir := "d"
	if err := mem.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	// The trailing mark keeps worker 0's quieter log from dragging the
	// cutoff below worker 1's record.
	for worker, fill := range []func(w *Writer){
		func(w *Writer) {
			b := w.Begin()
			b.Insert(10, []byte("k"), []value.ColPut{{Col: 0, Data: []byte("old")}}, nil, false, 0)
			b.Mark(50)
			b.End()
		},
		func(w *Writer) {
			b := w.Begin()
			b.Put(20, 10, []byte("k"), []value.ColPut{{Col: 1, Data: []byte("new")}}, false, 0)
			b.End()
		},
	} {
		w, err := newWriter(mem, dir, worker, 1, true, DefaultFlushInterval, clock.Wall{})
		if err != nil {
			t.Fatal(err)
		}
		fill(w)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	res, err := RecoverDirAboveFS(mem, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cutoff != 20 || res.MaxTS != 50 || res.MissingLogs != 0 {
		t.Fatalf("cutoff/maxTS/missing = %d/%d/%d, want 20/50/0", res.Cutoff, res.MaxTS, res.MissingLogs)
	}
	byTS := map[uint64]Record{}
	for _, r := range res.Records {
		byTS[r.TS] = r
	}
	if len(byTS) != 2 {
		t.Fatalf("recovered %d records, want 2 (ts 10 and 20): %+v", len(byTS), res.Records)
	}
	if r := byTS[10]; r.Op != OpInsert || r.Prev != 0 || r.Worker != 0 {
		t.Errorf("ts 10: op %d prev %d worker %d, want insert/0/0", r.Op, r.Prev, r.Worker)
	}
	if r := byTS[20]; r.Op != OpPut || r.Prev != 10 || r.Worker != 1 {
		t.Errorf("ts 20: op %d prev %d worker %d, want put/10/1", r.Op, r.Prev, r.Worker)
	}
}

// TestMissingLogDetection checks the logset file distinguishes a vanished
// log (file absent: counted) from a worker that never logged (file present,
// possibly empty: not counted), and that rotation keeps the expectation
// consistent with what DropBefore leaves behind.
func TestMissingLogDetection(t *testing.T) {
	mem := vfs.NewMemFS()
	dir := "d"
	if err := mem.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	set, err := OpenSetFS(mem, dir, 3, 1, true, DefaultFlushInterval, clock.Wall{})
	if err != nil {
		t.Fatal(err)
	}
	insertOne(set.Writer(0), 1, []byte("a"), []value.ColPut{{Col: 0, Data: []byte("v")}})
	// Worker 1 logs; worker 2 never does — its file exists but is empty.
	insertOne(set.Writer(1), 2, []byte("b"), []value.ColPut{{Col: 0, Data: []byte("v")}})
	if err := set.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := RecoverDirAboveFS(mem, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.MissingLogs != 0 {
		t.Fatalf("intact directory: MissingLogs = %d, want 0", res.MissingLogs)
	}
	// The adversity: worker 1's log vanishes wholesale.
	if err := mem.Remove(filepath.Join(dir, LogFileName(1, 1))); err != nil {
		t.Fatal(err)
	}
	mem.SyncDir(dir)
	res, err = RecoverDirAboveFS(mem, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.MissingLogs != 1 {
		t.Fatalf("after removing worker 1's log: MissingLogs = %d, want 1", res.MissingLogs)
	}

	// Rotation advances the expectation before any reclamation: dropping
	// the old generation after a rotate must not read as missing logs.
	mem2 := vfs.NewMemFS()
	if err := mem2.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	set2, err := OpenSetFS(mem2, dir, 2, 1, true, DefaultFlushInterval, clock.Wall{})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := set2.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := set2.DropBefore(gen); err != nil {
		t.Fatal(err)
	}
	mem2.SyncDir(dir)
	if err := set2.Close(); err != nil {
		t.Fatal(err)
	}
	res, err = RecoverDirAboveFS(mem2, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.MissingLogs != 0 {
		t.Fatalf("after rotate+drop: MissingLogs = %d, want 0", res.MissingLogs)
	}
}

// tempSyncFS fails Sync on the temp files it creates while failing is set;
// log files, opened through OpenFile, sync as usual.
type tempSyncFS struct {
	vfs.FS
	failing atomic.Bool
}

type tempSyncFile struct {
	vfs.File
	fs *tempSyncFS
}

func (f *tempSyncFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return tempSyncFile{file, f}, nil
}

func (f tempSyncFile) Sync() error {
	if f.fs.failing.Load() {
		return errors.New("injected: temp file sync failed")
	}
	return f.File.Sync()
}

// TestFailedRotateLeavesNoLogSetTemp: a rotation whose logset commit fails
// reports the failure and takes its temp file back out, so a store whose
// every checkpoint's rotation fails does not pile up logset-*.tmp files.
func TestFailedRotateLeavesNoLogSetTemp(t *testing.T) {
	fsys := &tempSyncFS{FS: vfs.NewMemFS()}
	if err := fsys.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	set, err := OpenSetFS(fsys, "d", 2, 1, true, time.Hour, clock.Wall{})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	fsys.failing.Store(true)
	for i := 0; i < 3; i++ {
		if _, err := set.Rotate(); err == nil {
			t.Fatal("Rotate reported success though its logset could not be synced")
		}
	}
	ents, err := fsys.ReadDir("d")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("failed rotations left %s behind", e.Name())
		}
	}
}

// FuzzRecordV2 fuzzes the record parser, seeded from the encoder. Properties:
// the parser never panics, never consumes more bytes than given, and any
// record it accepts round-trips through the encoder back to the same bytes
// (so parse ∘ encode is the identity on accepted inputs — a corrupt record
// can be rejected but never silently rewritten).
func FuzzRecordV2(f *testing.F) {
	puts := []value.ColPut{{Col: 0, Data: []byte("col0")}, {Col: 3, Data: nil}}
	anchor := value.BuildAt(nil, puts, 16, 0)
	records := [][]byte{
		appendRecord(nil, 7, 3, OpPut, []byte("key"), puts, nil, 0),
		appendRecord(nil, 9, 0, OpPutTTL, []byte("ttl"), puts, nil, 1234),
		appendRecord(nil, 11, 0, OpInsert, []byte("ins"), puts, nil, 0),
		appendRecord(nil, 13, 0, OpRemove, []byte("gone"), nil, nil, 0),
		appendRecord(nil, 15, 0, OpMark, nil, nil, nil, 0),
	}
	for _, s := range records {
		f.Add(s)
		f.Add(s[:len(s)-1]) // torn
	}
	flipped := append([]byte(nil), records[0]...)
	flipped[len(flipped)/2] ^= 0xff // crc mismatch
	for _, s := range [][]byte{
		appendRecord(nil, 17, 0, OpPut, []byte("anchor"), nil, anchor, 0),        // an older log's column-complete anchor
		appendRecord(nil, 23, 0, OpInsert, []byte("full"), nil, anchor, 0),       // an insert of a full value
		appendRecord(nil, 25, 0, OpInsertTTL, []byte("fullttl"), nil, anchor, 9), // a Touch's
		appendRecord(nil, 19, 0, OpInsertTTL, []byte("insttl"), puts, nil, 5678),
		appendRecord(nil, 21, 9, OpPutTTL, []byte("linkttl"), puts[:1], nil, 42),
		append(append([]byte(nil), records[0]...), records[1]...), // two back to back
		flipped,
		nil,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		r, n := parseRecord(b)
		if n == 0 {
			return
		}
		if n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		re := appendRecord(nil, r.TS, r.Prev, r.Op, r.Key, r.Puts, nil, r.Expiry)
		if !bytes.Equal(re, b[:n]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", re, b[:n])
		}
	})
}
