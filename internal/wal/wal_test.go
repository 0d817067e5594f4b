package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/clock"
	"repro/internal/value"
	"repro/internal/vfs"
)

// insertOne appends one insert record as a batch of one.
func insertOne(w *Writer, ts uint64, key []byte, puts []value.ColPut) {
	b := w.Begin()
	b.Insert(ts, key, puts, nil, false, 0)
	b.End()
}

// appendRec adapts a Record struct to the in-place encoder for tests.
func appendRec(buf []byte, r *Record) []byte {
	return appendRecord(buf, r.TS, r.Prev, r.Op, r.Key, r.Puts, nil, r.Expiry)
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{TS: 1, Op: OpPut, Key: []byte("k"), Puts: []value.ColPut{{Col: 0, Data: []byte("v")}}},
		{TS: 2, Op: OpPut, Key: []byte(""), Puts: []value.ColPut{{Col: 3, Data: nil}, {Col: 0, Data: []byte("x")}}},
		{TS: 3, Op: OpRemove, Key: []byte("gone")},
		{TS: 1 << 60, Op: OpPut, Key: bytes.Repeat([]byte{0}, 300), Puts: []value.ColPut{{Col: 9, Data: bytes.Repeat([]byte("d"), 5000)}}},
	}
	var buf []byte
	for i := range recs {
		buf = appendRec(buf, &recs[i])
	}
	for i := range recs {
		r, n := parseRecord(buf)
		if n == 0 {
			t.Fatalf("record %d failed to parse", i)
		}
		if r.TS != recs[i].TS || r.Op != recs[i].Op || !bytes.Equal(r.Key, recs[i].Key) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, r, recs[i])
		}
		if len(r.Puts) != len(recs[i].Puts) {
			t.Fatalf("record %d puts mismatch", i)
		}
		for j := range r.Puts {
			if r.Puts[j].Col != recs[i].Puts[j].Col || !bytes.Equal(r.Puts[j].Data, recs[i].Puts[j].Data) {
				t.Fatalf("record %d put %d mismatch", i, j)
			}
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Fatal("leftover bytes")
	}
}

func TestRecordRoundTripQuick(t *testing.T) {
	f := func(ts uint64, key []byte, col uint8, data []byte) bool {
		r := Record{TS: ts, Op: OpPut, Key: key, Puts: []value.ColPut{{Col: int(col), Data: data}}}
		buf := appendRec(nil, &r)
		got, n := parseRecord(buf)
		if n != len(buf) {
			return false
		}
		// normalize nil/empty
		keyEq := bytes.Equal(got.Key, key)
		dataEq := bytes.Equal(got.Puts[0].Data, data)
		return got.TS == ts && keyEq && got.Puts[0].Col == int(col) && dataEq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTornRecordStopsParse(t *testing.T) {
	r1 := Record{TS: 1, Op: OpPut, Key: []byte("a"), Puts: []value.ColPut{{Col: 0, Data: []byte("1")}}}
	r2 := Record{TS: 2, Op: OpPut, Key: []byte("b"), Puts: []value.ColPut{{Col: 0, Data: []byte("2")}}}
	buf := appendRec(nil, &r1)
	full := appendRec(append([]byte(nil), buf...), &r2)
	for cut := len(buf) + 1; cut < len(full); cut++ {
		log := append(append([]byte(nil), fileMagic...), full[:cut]...)
		recs, err := parseLog(log)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(recs) != 1 || recs[0].TS != 1 {
			t.Fatalf("cut %d: got %d records", cut, len(recs))
		}
	}
	// Corrupt a byte mid-first-record: zero records.
	bad := append(append([]byte(nil), fileMagic...), buf...)
	bad[len(fileMagic)+10] ^= 0xff
	recs, _ := parseLog(bad)
	if len(recs) != 0 {
		t.Fatal("corrupt record should not parse")
	}
}

func TestWriterFlushAndReload(t *testing.T) {
	dir := t.TempDir()
	set, err := OpenSet(dir, 2, 1, false, time.Hour) // no auto flush
	if err != nil {
		t.Fatal(err)
	}
	insertOne(set.Writer(0), 1, []byte("a"), []value.ColPut{{Col: 0, Data: []byte("1")}})
	insertOne(set.Writer(1), 2, []byte("b"), []value.ColPut{{Col: 0, Data: []byte("2")}})
	if err := set.Flush(); err != nil {
		t.Fatal(err)
	}
	b := set.Writer(0).Begin()
	b.Remove(3, []byte("a"))
	b.End()
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := RecoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Cutoff = min(max per worker) = min(3, 2) = 2 → record TS 3 dropped.
	if res.Cutoff != 2 {
		t.Fatalf("cutoff = %d, want 2", res.Cutoff)
	}
	if res.MaxTS != 3 {
		t.Fatalf("maxTS = %d, want 3", res.MaxTS)
	}
	if len(res.Records) != 2 {
		t.Fatalf("got %d records, want 2", len(res.Records))
	}
}

func TestRecoverCutoffDropsUnackedTail(t *testing.T) {
	dir := t.TempDir()
	set, _ := OpenSet(dir, 2, 1, false, time.Hour)
	// Worker 0 durably logged through TS 10; worker 1 only through TS 5.
	for ts := uint64(1); ts <= 10; ts++ {
		insertOne(set.Writer(0), ts, []byte{byte(ts)}, []value.ColPut{{Col: 0, Data: []byte("x")}})
	}
	for ts := uint64(1); ts <= 5; ts++ {
		insertOne(set.Writer(1), ts+100, []byte{byte(ts)}, []value.ColPut{{Col: 0, Data: []byte("y")}})
	}
	set.Close()
	res, err := RecoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cutoff != 10 {
		t.Fatalf("cutoff = %d, want 10", res.Cutoff)
	}
	for _, r := range res.Records {
		if r.TS > res.Cutoff {
			t.Fatalf("record beyond cutoff survived: %d", r.TS)
		}
	}
	if len(res.Records) != 10 {
		t.Fatalf("got %d records, want 10", len(res.Records))
	}
}

func TestEmptyLogDoesNotConstrainCutoff(t *testing.T) {
	dir := t.TempDir()
	set, _ := OpenSet(dir, 2, 1, false, time.Hour)
	insertOne(set.Writer(0), 7, []byte("k"), []value.ColPut{{Col: 0, Data: []byte("v")}})
	set.Close()
	res, err := RecoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cutoff != 7 || len(res.Records) != 1 {
		t.Fatalf("cutoff=%d records=%d", res.Cutoff, len(res.Records))
	}
}

func TestRotateAndDrop(t *testing.T) {
	dir := t.TempDir()
	set, _ := OpenSet(dir, 1, 1, false, time.Hour)
	insertOne(set.Writer(0), 1, []byte("old"), []value.ColPut{{Col: 0, Data: []byte("1")}})
	gen, err := set.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	insertOne(set.Writer(0), 2, []byte("new"), []value.ColPut{{Col: 0, Data: []byte("2")}})
	set.Flush()
	if err := set.DropBefore(gen); err != nil {
		t.Fatal(err)
	}
	set.Close()
	files, _ := ListLogFilesFS(vfs.OS{}, dir)
	if len(files) != 1 || files[0].Gen != gen {
		t.Fatalf("files after drop: %+v", files)
	}
	res, _ := RecoverDir(dir)
	if len(res.Records) != 1 || string(res.Records[0].Key) != "new" {
		t.Fatalf("post-drop records: %+v", res.Records)
	}
}

func TestBackgroundFlush(t *testing.T) {
	dir := t.TempDir()
	wall := clock.NewFake()
	set, err := OpenSetFS(vfs.OS{}, dir, 1, 1, false, 5*time.Millisecond, wall)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	insertOne(set.Writer(0), 1, []byte("k"), []value.ColPut{{Col: 0, Data: []byte("v")}})
	wall.Advance(5 * time.Millisecond) // one flush interval: the flusher's tick
	waitUntil(t, func() bool {
		b, _ := os.ReadFile(filepath.Join(dir, LogFileName(0, 1)))
		return len(b) > len(fileMagic)
	})
}

// waitUntil yields until cond holds, failing the test after 5 s of real time.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
	}
}

// TestBatchRoundTrip checks that one batch of every record form encodes the
// bytes a batch per record does — an insert read from the packed value the
// same as an insert handed every column — and that one batch's records land
// in call order.
func TestBatchRoundTrip(t *testing.T) {
	ka, kb, kc, kd := []byte("ka"), []byte("kb"), []byte("kc"), []byte("kd")
	delta := []value.ColPut{{Col: 1, Data: []byte("vb")}, {Col: 0, Data: nil}}
	full := []value.ColPut{{Col: 0, Data: []byte("c0")}, {Col: 1, Data: nil}, {Col: 2, Data: []byte("c2")}}
	v := value.BuildAt(nil, full, 4, 0)

	dirs := [2]string{t.TempDir(), t.TempDir()}
	batched, _ := OpenSet(dirs[0], 1, 1, false, time.Hour)
	b := batched.Writer(0).Begin()
	b.Put(3, 2, ka, delta, false, 0)
	b.Insert(1, kb, delta, nil, false, 0)
	b.Insert(4, kc, nil, v, false, 0)
	b.Put(5, 3, ka, delta, true, 77)
	b.Insert(6, kd, delta, nil, true, 0)
	b.Insert(7, kc, nil, v, true, 88)
	b.Remove(8, kd)
	b.Mark(9)
	b.End()
	batched.Close()

	single, _ := OpenSet(dirs[1], 1, 1, false, time.Hour)
	w := single.Writer(0)
	for _, f := range []func(b Batch){
		func(b Batch) { b.Put(3, 2, ka, delta, false, 0) },
		func(b Batch) { b.Insert(1, kb, delta, nil, false, 0) },
		func(b Batch) { b.Insert(4, kc, full, nil, false, 0) },
		func(b Batch) { b.Put(5, 3, ka, delta, true, 77) },
		func(b Batch) { b.Insert(6, kd, delta, nil, true, 0) },
		func(b Batch) { b.Insert(7, kc, full, nil, true, 88) },
		func(b Batch) { b.Remove(8, kd) },
		func(b Batch) { b.Mark(9) },
	} {
		b := w.Begin()
		f(b)
		b.End()
	}
	single.Close()

	var logs [2][]byte
	for i, dir := range dirs {
		var err error
		if logs[i], err = os.ReadFile(filepath.Join(dir, LogFileName(0, 1))); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(logs[0], logs[1]) {
		t.Fatalf("batched log differs from one-at-a-time log:\n got %x\nwant %x", logs[0], logs[1])
	}
	res, err := RecoverDir(dirs[0])
	if err != nil {
		t.Fatal(err)
	}
	wantOps := []Op{OpPut, OpInsert, OpInsert, OpPutTTL, OpInsertTTL, OpInsertTTL, OpRemove}
	wantTS := []uint64{3, 1, 4, 5, 6, 7, 8}
	if len(res.Records) != len(wantOps) {
		t.Fatalf("got %d records, want %d", len(res.Records), len(wantOps))
	}
	for i, r := range res.Records {
		if r.Op != wantOps[i] || r.TS != wantTS[i] {
			t.Fatalf("record %d = op %d ts %d, want op %d ts %d", i, r.Op, r.TS, wantOps[i], wantTS[i])
		}
	}
	// Cutoff = max TS in the log (the mark's), though an earlier record
	// carries TS 1.
	if res.Cutoff != 9 {
		t.Fatalf("cutoff = %d, want per-log max 9", res.Cutoff)
	}
}

// TestFlushErrorRecorded proves a failed flush is not dropped on the floor:
// the error count rises and the last error is retained for FlushStats.
func TestFlushErrorRecorded(t *testing.T) {
	dir := t.TempDir()
	set, _ := OpenSet(dir, 1, 1, false, time.Hour)
	w := set.Writer(0)
	w.f.Close() // sabotage the file: the next flush's write must fail
	insertOne(w, 1, []byte("k"), []value.ColPut{{Col: 0, Data: []byte("v")}})
	if err := w.Flush(); err == nil {
		t.Fatal("flush on a closed file should fail")
	}
	n, last := w.FlushStats()
	if n != 1 || last == nil {
		t.Fatalf("FlushStats = %d,%v want 1,non-nil", n, last)
	}
	sn, slast := set.FlushStats()
	if sn != 1 || slast == nil {
		t.Fatalf("Set.FlushStats = %d,%v", sn, slast)
	}
	w.f = nil // avoid double close noise
	set.Close()
}

// TestAppendAllocFree pins the scratch-encoded append path at zero
// allocations into buffers that already have the room. It says nothing about
// volume: 300 records never reach kickLevel, so no background flush ever
// swaps these buffers (TestAppendVolumeAllocs is the pin that does).
func TestAppendAllocFree(t *testing.T) {
	dir := t.TempDir()
	set, _ := OpenSet(dir, 1, 1, false, time.Hour)
	defer set.Close()
	w := set.Writer(0)
	key := []byte("alloc-test-key")
	puts := []value.ColPut{{Col: 0, Data: []byte("alloc-test-column-data")}}
	// Grow both halves of the double buffer past the measured volume.
	for round := 0; round < 2; round++ {
		for i := 0; i < 300; i++ {
			insertOne(w, uint64(i), key, puts)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		insertOne(w, 7, key, puts)
	})
	if allocs != 0 {
		t.Fatalf("a batch of one insert allocates %.1f times per run, want 0", allocs)
	}
}

// TestFlushFailureRetainsRecords proves a failed flush does not drop the
// swapped-out batch: once the device recovers, the next flush writes the
// retained records in their original order.
func TestFlushFailureRetainsRecords(t *testing.T) {
	dir := t.TempDir()
	set, _ := OpenSet(dir, 1, 1, false, time.Hour)
	w := set.Writer(0)
	insertOne(w, 1, []byte("kept"), []value.ColPut{{Col: 0, Data: []byte("v1")}})
	w.f.Close() // device "fails"
	if err := w.Flush(); err == nil {
		t.Fatal("flush on a closed file should fail")
	}
	insertOne(w, 2, []byte("later"), []value.ColPut{{Col: 0, Data: []byte("v2")}})
	if err := w.openFile(); err != nil { // device "recovers"
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	set.Close()
	res, err := RecoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 2 || res.Records[0].TS != 1 || res.Records[1].TS != 2 {
		t.Fatalf("records after failed-then-recovered flush: %+v", res.Records)
	}
}

// TestAppendAllocFreeAcrossFlushes extends the steady-state pin across
// group commits: the double buffers must keep their full capacity through
// swap/write cycles, so append+flush rounds allocate nothing once warm.
func TestAppendAllocFreeAcrossFlushes(t *testing.T) {
	dir := t.TempDir()
	set, _ := OpenSet(dir, 1, 1, false, time.Hour)
	defer set.Close()
	w := set.Writer(0)
	key := []byte("alloc-flush-key")
	puts := []value.ColPut{{Col: 0, Data: []byte("alloc-flush-column-data")}}
	for round := 0; round < 2; round++ { // grow both buffer halves past one cycle's volume
		for i := 0; i < 150; i++ {
			insertOne(w, uint64(i), key, puts)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 100; i++ {
			insertOne(w, 7, key, puts)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("append+flush cycle allocates %.1f times per run, want 0 (buffer capacity eroding?)", allocs)
	}
}
