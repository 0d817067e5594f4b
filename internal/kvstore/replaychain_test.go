package kvstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/value"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// chainCfg is a store over mem with synced logging. Opened on a fake clock
// it runs no background flush or maintenance, so tests control exactly what
// reaches the logs.
func chainCfg(mem vfs.FS) Config {
	return Config{Dir: "d", FS: mem, Workers: 2, SyncWrites: true}
}

// TestPreChainLogRefusesToOpen: a directory whose current log is in the
// paper's unchained MTLOG1 format, as directories written before chained
// records were, refuses to open and names the log. It never opens empty
// over records it cannot read.
func TestPreChainLogRefusesToOpen(t *testing.T) {
	mem := vfs.NewMemFS()
	if err := mem.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	payload := []byte{
		5, 0, 0, 0, 0, 0, 0, 0, // ts
		1,               // OpPut, with no prev link
		1, 0, 0, 0, 'k', // key
		1, 0, // ncols
		0, 0, 1, 0, 0, 0, 'a', // column 0 = "a"
	}
	log := append([]byte("MTLOG1\n"), 0, 0, 0, 0, byte(len(payload)), 0, 0, 0)
	binary.LittleEndian.PutUint32(log[7:], crc32.ChecksumIEEE(payload))
	log = append(log, payload...)
	path := filepath.Join("d", wal.LogFileName(0, 1))
	f, err := mem.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(log); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	mem.SyncDir("d")
	if s, err := Open(chainCfg(mem)); err == nil {
		n := s.Len()
		s.Close()
		t.Fatalf("Open accepted %s and recovered %d keys", path, n)
	} else if !strings.Contains(err.Error(), path) {
		t.Fatalf("error %q does not name %s", err, path)
	}
}

// TestUnlinkedPutStillReplaces: the store logs a record that stands alone
// as an insert, but an MTLOG2 log written before that rule holds the same
// record as an OpPut or OpPutTTL with prev == 0, and replay must still apply
// one as a replacement, not a merge. The log is encoded by hand, so the
// check does not depend on an appender still writing the old form.
func TestUnlinkedPutStillReplaces(t *testing.T) {
	mem := vfs.NewMemFS()
	if err := mem.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	wall := clock.NewFake()
	expiry := uint64(wall.Now().Add(time.Hour).UnixNano())
	record := func(ts uint64, op wal.Op, expiry uint64, key string, cols ...string) []byte {
		p := binary.LittleEndian.AppendUint64(nil, ts)
		p = append(p, byte(op))
		if op == wal.OpPut || op == wal.OpPutTTL {
			p = binary.LittleEndian.AppendUint64(p, 0) // prev: the old anchor's 0
		}
		if op == wal.OpPutTTL || op == wal.OpInsertTTL {
			p = binary.LittleEndian.AppendUint64(p, expiry)
		}
		p = binary.LittleEndian.AppendUint32(p, uint32(len(key)))
		p = append(p, key...)
		p = binary.LittleEndian.AppendUint16(p, uint16(len(cols)))
		for i, c := range cols {
			p = binary.LittleEndian.AppendUint16(p, uint16(i))
			p = binary.LittleEndian.AppendUint32(p, uint32(len(c)))
			p = append(p, c...)
		}
		r := binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(p))
		r = binary.LittleEndian.AppendUint32(r, uint32(len(p)))
		return append(r, p...)
	}
	log := []byte("MTLOG2\n")
	for _, r := range [][]byte{
		record(5, wal.OpInsert, 0, "k", "a", "b"),
		record(6, wal.OpInsert, 0, "t", "a", "b"),
		record(7, wal.OpPut, 0, "k", "x"),
		record(8, wal.OpPutTTL, expiry, "t", "y"),
	} {
		log = append(log, r...)
	}
	f, err := mem.OpenFile(filepath.Join("d", wal.LogFileName(0, 1)), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(log); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	mem.SyncDir("d")

	s := openAt(t, chainCfg(mem), wall)
	ss := s.Session(0)
	for _, c := range []struct {
		key, cols string
		ver, exp  uint64
	}{{"k", "x", 7, 0}, {"t", "y", 8, expiry}} {
		v, ok := ss.GetValue([]byte(c.key))
		if !ok || joinCols(v.Cols()) != c.cols || v.Version() != c.ver || v.ExpiresAt() != c.exp {
			t.Errorf("%s: found %v, %q v%d e%d; want %q v%d e%d (replaced, not merged onto a|b)",
				c.key, ok, joinCols(v.Cols()), v.Version(), v.ExpiresAt(), c.cols, c.ver, c.exp)
		}
	}
	if st := s.RecoveryStats(); st.BrokenChains != 0 {
		t.Errorf("recovery stats %+v, want no broken chain", st)
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
	set, err := wal.OpenSetFS(mem, "d", 1, 1, true, time.Hour, clock.Wall{})
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
		b := w.Begin()
		b.Insert(5, key, []value.ColPut{{Col: 0, Data: []byte("a")}}, nil, false, 0)
		b.Put(7, 5, key, []value.ColPut{{Col: 1, Data: []byte("b")}}, false, 0)
		b.End()
	}

	mem := vfs.NewMemFS()
	path := logAsWorker(t, mem, value.MaxWorker, fill)
	s := openAt(t, chainCfg(mem), clock.NewFake())
	ss := sessions(s, 2)
	if v, ok := ss[0].GetValue(key); !ok || v.Worker() != value.MaxWorker || string(v.Col(0)) != "a" || string(v.Col(1)) != "b" {
		t.Fatalf("replayed %v tagged worker %d (ok=%v), want {a, b} tagged %d", v, v.Worker(), ok, value.MaxWorker)
	}
	ss[1].Put(key, []value.ColPut{{Col: 1, Data: []byte("B")}})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mem.Remove(path); err != nil {
		t.Fatal(err)
	}
	mem.SyncDir("d")
	r := openAt(t, chainCfg(mem), clock.NewFake())
	rs := sessions(r, 1)[0]
	v, ok := rs.GetValue(key)
	cols := v.Cols()
	if !ok || len(cols) != 2 || string(cols[0]) != "a" || string(cols[1]) != "B" || r.RecoveryStats().BrokenChains != 0 {
		t.Fatalf("the write over worker %d's value did not anchor: %q ok=%v (stats %+v)", value.MaxWorker, cols, ok, r.RecoveryStats())
	}
	r.Close()

	mem = vfs.NewMemFS()
	path = logAsWorker(t, mem, value.MaxWorker+1, fill)
	if s, err := Open(chainCfg(mem)); err == nil {
		v, _ := sessions(s, 1)[0].GetValue(key)
		s.Close()
		t.Fatalf("Open replayed %s; its records are tagged worker %d", path, v.Worker())
	} else if !strings.Contains(err.Error(), path) {
		t.Fatalf("error %q does not name %s", err, path)
	}

	if s, err := Open(Config{Workers: value.MaxWorker + 2}); err == nil {
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
	set, err := wal.OpenSetFS(mem, "d", 1, 1, true, time.Hour, clock.Wall{})
	if err != nil {
		t.Fatal(err)
	}
	// Key "whole": its anchor will be in the vanished generation — every
	// surviving record dangles, so it must roll back to absence.
	b := set.Writer(0).Begin()
	b.Insert(5, []byte("whole"), []value.ColPut{{Col: 0, Data: []byte("lost")}}, nil, false, 0)
	b.End()
	if err := set.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
	set2, err := wal.OpenSetFS(mem, "d", 1, 2, true, time.Hour, clock.Wall{})
	if err != nil {
		t.Fatal(err)
	}
	b = set2.Writer(0).Begin()
	b.Put(9, 5, []byte("whole"), []value.ColPut{{Col: 1, Data: []byte("dangling")}}, false, 0)
	// Key "part": anchored in the surviving generation, then one good link
	// and one broken link (its prev names a version that never replays).
	b.Insert(10, []byte("part"), []value.ColPut{{Col: 0, Data: []byte("x")}}, nil, false, 0)
	b.Put(12, 10, []byte("part"), []value.ColPut{{Col: 1, Data: []byte("y")}}, false, 0)
	b.Put(14, 13, []byte("part"), []value.ColPut{{Col: 0, Data: []byte("BAD")}}, false, 0)
	b.End()
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

	s := openAt(t, chainCfg(mem), clock.NewFake())
	ss := sessions(s, 1)[0]
	if _, ok := ss.GetValue([]byte("whole")); ok {
		t.Error("key with no surviving anchor recovered non-absent: dangling record was applied")
	}
	v, ok := ss.GetValue([]byte("part"))
	cols := v.Cols()
	if !ok || len(cols) != 2 || string(cols[0]) != "x" || string(cols[1]) != "y" {
		t.Errorf("partially-anchored key = %q ok=%v, want exactly the anchored prefix {x, y}", cols, ok)
	}
	if v, ok := ss.GetValue([]byte("part")); ok && v.Version() != 12 {
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
	s := openAt(t, chainCfg(mem), clock.NewFake())
	mr := newMirror(t, s, 2)
	wide := []value.ColPut{col(0, "first"), col(value.MaxCol, "last")}
	mr.putW(0, "checkpointed", wide...)
	if _, _, err := s.CheckpointN(0); err != nil {
		t.Fatal(err)
	}
	mr.putW(0, "anchored", wide...)
	mr.putW(1, "anchored", col(1, "second")) // a handoff: logged column-complete

	r := restart(t, s, chainCfg(mem))
	mr.matches(r, "recovered")
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
	s := openAt(t, chainCfg(mem), clock.NewFake())
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
	refused("PutBatchInto", func() { ss.PutBatchInto([][]byte{[]byte("bad"), []byte("batched")}, [][]value.ColPut{over, good}) })
	refused("PointBatchInto", func() {
		ss.PointBatchInto([][]byte{[]byte("batched"), []byte("bad")}, []bool{false, true}, [][]value.ColPut{nil, over})
	})
	ss.Put([]byte("after"), good) // the border and the worker's log window were left unlocked
	ss.PutBatchInto([][]byte{[]byte("bad0"), []byte("batched")}, [][]value.ColPut{good, good})
	for _, k := range []string{"bad", "bad0", "after", "batched"} {
		if _, ok := ss.GetValue([]byte(k)); ok != (k != "bad") {
			t.Errorf("%q found %v after the refused puts", k, ok)
		}
	}
	want := snapshotState(s)
	r := restart(t, s, chainCfg(mem))
	diffStates(t, "after the restart", want, snapshotState(r))
}

// TestHandoffAnchorAllocs pins the cross-log handoff write path at one
// allocation per put, the packed value, like the plain logged path
// (TestPutSimpleAllocs' logged PutSimple row): the column-complete anchor is
// encoded from the value's own packed columns, not from a ColPut slice built
// to list them.
func TestHandoffAnchorAllocs(t *testing.T) {
	mem := vfs.NewMemFS()
	if err := mem.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	s := openAt(t, chainCfg(mem), clock.NewFake())
	ss := sessions(s, 2)
	key := []byte("pingpong")
	data := []byte("some-column-data")
	puts := []value.ColPut{{Col: 0, Data: data}}
	// Grow the log buffers past the measured volume and walk the tree path.
	for i := 0; i < 300; i++ {
		ss[i%2].Put(key, puts)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Each iteration alternates workers, so every put replaces a value
	// stamped through the other worker's log: two handoff-anchor puts.
	allocs := testing.AllocsPerRun(200, func() {
		ss[0].Put(key, puts)
		ss[1].Put(key, puts)
	})
	if allocs > 2 {
		t.Fatalf("handoff-anchor Put allocates %.1f per pair (%.1f per put), want <= 1 per put", allocs, allocs/2)
	}
}

// TestReplayFold drives replay, recovery's fold of one key's records over its
// checkpointed value, with no tree and no store: each case is a base (the
// checkpointed value or nil) and the key's records in increasing TS order,
// and the result is the key's final version, worker tag, expiry and columns,
// and whether its chain broke.
func TestReplayFold(t *testing.T) {
	cols := func(cs ...string) []value.ColPut {
		out := make([]value.ColPut, len(cs))
		for i, c := range cs {
			out[i] = value.ColPut{Col: i, Data: []byte(c)}
		}
		return out
	}
	put := func(ts, prev uint64, worker int, puts ...value.ColPut) wal.Record {
		return wal.Record{TS: ts, Op: wal.OpPut, Key: []byte("k"), Prev: prev, Worker: worker, Puts: puts}
	}
	insert := func(ts uint64, worker int, puts ...value.ColPut) wal.Record {
		return wal.Record{TS: ts, Op: wal.OpInsert, Key: []byte("k"), Worker: worker, Puts: puts}
	}
	remove := func(ts uint64) wal.Record { return wal.Record{TS: ts, Op: wal.OpRemove, Key: []byte("k")} }
	col1 := func(d string) value.ColPut { return value.ColPut{Col: 1, Data: []byte(d)} }
	// base is the checkpointed value: version 10 by worker 1, columns a|b.
	base := value.BuildTTLAt(nil, cols("a", "b"), 10, 1, 0)
	state := func(v *value.Value) string {
		if v == nil {
			return "absent"
		}
		return fmt.Sprintf("v%d w%d e%d %s", v.Version(), v.Worker(), v.ExpiresAt(), joinCols(v.Cols()))
	}
	for _, tc := range []struct {
		name   string
		base   *value.Value
		recs   []wal.Record
		want   string
		broken bool
	}{
		{"no records", base, nil, "v10 w1 e0 a|b", false},
		{"records at or below the version are skipped", base,
			[]wal.Record{put(5, 0, 0, cols("old")...), remove(7), put(10, 0, 0, cols("same")...)},
			"v10 w1 e0 a|b", false},
		{"a newer remove clears", base, []wal.Record{remove(11)}, "absent", false},
		{"an older remove keeps", base, []wal.Record{remove(9)}, "v10 w1 e0 a|b", false},
		{"an insert replaces", base, []wal.Record{insert(11, 0, cols("x")...)}, "v11 w0 e0 x", false},
		{"a prev 0 put replaces", base, []wal.Record{put(11, 0, 0, cols("x")...)}, "v11 w0 e0 x", false},
		{"a column-complete overwrite logged as an insert replaces the checkpointed base", base,
			[]wal.Record{insert(11, 1, cols("x", "y")...)}, "v11 w1 e0 x|y", false},
		{"a column-complete overwrite logged as an insert ends a delta chain", base,
			[]wal.Record{put(11, 10, 1, col1("y")), put(12, 11, 1, value.ColPut{Col: 2, Data: []byte("z")}),
				insert(13, 1, cols("p", "q", "r")...), put(14, 13, 1, col1("s"))},
			"v14 w1 e0 p|s|r", false},
		{"a matching link merges", base, []wal.Record{put(11, 10, 1, col1("y"))}, "v11 w1 e0 a|y", false},
		{"a chain of links merges", base,
			[]wal.Record{put(11, 10, 1, col1("y")), put(12, 11, 0, value.ColPut{Col: 2, Data: []byte("z")})},
			"v12 w0 e0 a|y|z", false},
		{"a mismatched link holds the prefix", base,
			[]wal.Record{put(11, 10, 1, col1("y")), put(13, 12, 1, col1("lost")), put(14, 13, 1, col1("lost"))},
			"v11 w1 e0 a|y", true},
		{"a linked put onto an absent key holds it absent", nil,
			[]wal.Record{put(5, 3, 0, col1("lost"))}, "absent", true},
		{"after a broken link an anchor resumes the key", base,
			[]wal.Record{put(12, 11, 0, col1("lost")), put(13, 0, 0, cols("p", "q")...), put(14, 13, 0, col1("r"))},
			"v14 w0 e0 p|r", true},
		{"after a broken link an insert resumes an absent key", nil,
			[]wal.Record{put(5, 3, 0, col1("lost")), insert(6, 1, cols("n")...), put(7, 6, 1, col1("m"))},
			"v7 w1 e0 n|m", true},
		{"a remove then an insert", base,
			[]wal.Record{remove(11), insert(12, 0, cols("new")...)}, "v12 w0 e0 new", false},
		{"expiry and worker come from the record", base,
			[]wal.Record{{TS: 11, Op: wal.OpPutTTL, Key: []byte("k"), Prev: 10, Worker: 3, Puts: []value.ColPut{col1("t")}, Expiry: 1234}},
			"v11 w3 e1234 a|t", false},
		{"an insert with a TTL", nil,
			[]wal.Record{{TS: 4, Op: wal.OpInsertTTL, Key: []byte("k"), Worker: 2, Puts: cols("i"), Expiry: 99}},
			"v4 w2 e99 i", false},
	} {
		got, broken := replay(tc.base, tc.recs)
		if state(got) != tc.want || broken != tc.broken {
			t.Errorf("%s: got %s, broken %v; want %s, broken %v", tc.name, state(got), broken, tc.want, tc.broken)
		}
	}
	if got, _ := replay(base, []wal.Record{put(10, 0, 0, cols("same")...)}); got != base {
		t.Errorf("a skipped record rebuilt the value: %s", state(got))
	}
}
