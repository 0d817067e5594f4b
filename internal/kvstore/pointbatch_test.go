package kvstore

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/value"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// frameOp is one operation of a mixed frame: a put of puts, or with nil puts
// a get.
type frameOp struct {
	key  string
	puts []value.ColPut
}

func getOp(key string) frameOp { return frameOp{key: key} }

func putOp(key string, puts ...value.ColPut) frameOp {
	if puts == nil {
		puts = []value.ColPut{}
	}
	return frameOp{key: key, puts: puts}
}

// frameResult is what a frame reported for one operation: a get's columns
// (joined, see joinCols), found flag and version, or a put's version.
type frameResult struct {
	data  string
	found bool
	ver   uint64
}

// runFrame sends ops through the session as one PointBatchInto call.
func runFrame(sess *Session, ops []frameOp) []frameResult {
	keys, put, puts := make([][]byte, len(ops)), make([]bool, len(ops)), make([][]value.ColPut, len(ops))
	for i, op := range ops {
		keys[i], put[i], puts[i] = []byte(op.key), op.puts != nil, op.puts
	}
	vals, found, vers := sess.PointBatchInto(keys, put, puts)
	out := make([]frameResult, len(ops))
	for i := range ops {
		switch {
		case put[i]:
			out[i] = frameResult{ver: vers[i]}
		case found[i]:
			out[i] = frameResult{data: joinCols(vals[i].Cols()), found: true, ver: vals[i].Version()}
		}
	}
	return out
}

// runOneAtATime is the definition runFrame is held to: the same operations,
// each its own call, in order.
func runOneAtATime(sess *Session, ops []frameOp) []frameResult {
	out := make([]frameResult, len(ops))
	for i, op := range ops {
		if op.puts != nil {
			out[i] = frameResult{ver: sess.Put([]byte(op.key), op.puts)}
		} else if v, ok := sess.GetValue([]byte(op.key)); ok {
			out[i] = frameResult{data: joinCols(v.Cols()), found: true, ver: v.Version()}
		}
	}
	return out
}

// TestPointBatchFrameOrder pins the ordering contract of a mixed frame:
// operations on one key take effect in frame order — a get behind a put
// reads what that put published, a get ahead of every put of its key reads
// what was there before the frame, versions ascend along a key — whatever
// happens between different keys.
func TestPointBatchFrameOrder(t *testing.T) {
	s := openMem(t)
	sess := s.Session(0)
	defer sess.Close()
	c := func(col int, data string) value.ColPut { return value.ColPut{Col: col, Data: []byte(data)} }
	sess.Put([]byte("j"), []value.ColPut{c(0, "j-old")})
	sess.Put([]byte("record"), []value.ColPut{c(0, "a"), c(1, "b"), c(2, "c")})
	sess.PutTTL([]byte("lapsed"), []value.ColPut{c(0, "dead")}, uint64(time.Now().Add(-time.Second).UnixNano()))

	res := runFrame(sess, []frameOp{
		putOp("k", c(0, "v1")), getOp("k"), putOp("k", c(0, "v2")), getOp("k"), // 0..3
		getOp("j"), putOp("j", c(0, "w")), // 4, 5: a get ahead of its key's put
		putOp("record", c(1, "B")), getOp("record"), // 6, 7: a partial-column put, then all columns
		getOp("lapsed"), putOp("lapsed", c(1, "reborn")), getOp("lapsed"), // 8..10
		getOp("nowhere"), // 11
	})
	want := map[int]frameResult{
		1:  {data: "v1", found: true, ver: res[0].ver},
		3:  {data: "v2", found: true, ver: res[2].ver},
		4:  {data: "j-old", found: true, ver: res[4].ver},
		7:  {data: "a|B|c", found: true, ver: res[6].ver},
		8:  {},
		10: {data: "|reborn", found: true, ver: res[9].ver}, // built on no base: the dead column stays dead
		11: {},
	}
	for i, w := range want {
		if res[i] != w {
			t.Errorf("op %d: got %+v, want %+v", i, res[i], w)
		}
	}
	if !(res[0].ver > 0 && res[0].ver < res[2].ver) {
		t.Errorf("versions along k do not ascend: %d then %d", res[0].ver, res[2].ver)
	}
	if res[4].ver >= res[5].ver {
		t.Errorf("j's get read version %d, not below its later put's %d", res[4].ver, res[5].ver)
	}
	for key, want := range map[string]string{"k": "v2", "j": "w", "record": "a|B|c", "lapsed": "|reborn"} {
		if cols, ok := sess.Get([]byte(key), nil); !ok || joinCols(cols) != want {
			t.Errorf("after the frame %q = %q (%v), want %q", key, joinCols(cols), ok, want)
		}
	}
}

// randomFrames generates frames whose keys collide on purpose — within a
// frame, across frames, on their first eight bytes and two layers down, a
// few to a slice (twigs) and many (layers that outgrow their root border) —
// with whole-record and partial-column puts and gets of keys never written.
func randomFrames(rng *rand.Rand, frames, maxLen int) [][]frameOp {
	out := make([][]frameOp, frames)
	for f := range out {
		ops := make([]frameOp, 1+rng.Intn(maxLen))
		for i := range ops {
			var key string
			switch rng.Intn(5) {
			case 0:
				key = fmt.Sprintf("k%d", rng.Intn(40))
			case 1:
				key = fmt.Sprintf("sameslice%02d", rng.Intn(30))
			case 2: // up to four keys to a slice: a twig
				key = fmt.Sprintf("twig%04d%c", rng.Intn(8), 'a'+rng.Intn(4))
			case 3: // the same two layers down, remainders past the twig's own bytes
				key = fmt.Sprintf("deeptwigdeeptwigTWIG%04d%c-and-a-tail", rng.Intn(8), 'a'+rng.Intn(4))
			default:
				key = fmt.Sprintf("sameslicesameslice%02d-tail", rng.Intn(30))
			}
			switch rng.Intn(5) {
			case 0, 1:
				ops[i] = getOp(key)
			case 2:
				ops[i] = putOp(key,
					value.ColPut{Col: 0, Data: []byte(fmt.Sprintf("f%d.%d", f, i))},
					value.ColPut{Col: 2, Data: []byte("c2")})
			default:
				ops[i] = putOp(key, value.ColPut{Col: rng.Intn(3), Data: []byte(fmt.Sprintf("f%d.%d", f, i))})
			}
		}
		out[f] = ops
	}
	return out
}

// frameLedger follows one store through a run of frames: which put, counted
// across the run, drew each version, and that versions ascend along a key.
// Two stores given the same operations draw different numbers — a frame
// applies its puts in tree order — so results are compared by the put a
// version names, not by the number.
type frameLedger struct {
	t      *testing.T
	origin map[uint64]int // version -> ordinal of the put that drew it
	last   map[string]uint64
	nputs  int
}

func newFrameLedger(t *testing.T) *frameLedger {
	return &frameLedger{t: t, origin: map[uint64]int{}, last: map[string]uint64{}}
}

// note records a frame's results and rewrites each version as the ordinal of
// the put it came from (0 for no version).
func (l *frameLedger) note(ops []frameOp, res []frameResult) []frameResult {
	out := make([]frameResult, len(res))
	for i, op := range ops {
		out[i] = res[i]
		if op.puts != nil {
			if res[i].ver <= l.last[op.key] {
				l.t.Fatalf("put of %q drew version %d after %d", op.key, res[i].ver, l.last[op.key])
			}
			l.nputs++
			l.origin[res[i].ver], l.last[op.key] = l.nputs, res[i].ver
		}
		if out[i].ver != 0 {
			out[i].ver = uint64(l.origin[res[i].ver])
		}
	}
	return out
}

// state is snapshotState with versions rewritten as note rewrites them.
func (l *frameLedger) state(s *Store) map[string]kvState {
	st := snapshotState(s)
	for k, v := range st {
		v.ver = uint64(l.origin[v.ver])
		st[k] = v
	}
	return st
}

// TestPointBatchMatchesOneAtATime is the differential test of the mixed
// entry: random frames through PointBatchInto against a second store given
// the same operations one call at a time. Every get must report the same
// columns from the same put, and the stores must end up equal.
func TestPointBatchMatchesOneAtATime(t *testing.T) {
	batched, single := openMem(t), openMem(t)
	bs, ss := batched.Session(0), single.Session(0)
	defer bs.Close()
	defer ss.Close()
	bl, sl := newFrameLedger(t), newFrameLedger(t)
	fellBack := 0 // frames in which a wave handed a get to Get
	for f, ops := range randomFrames(rand.New(rand.NewSource(11)), 300, 40) {
		fb := batched.Stats().BatchFallbacks
		got, want := bl.note(ops, runFrame(bs, ops)), sl.note(ops, runOneAtATime(ss, ops))
		for i := range ops {
			if got[i] != want[i] {
				t.Fatalf("frame %d op %d (%q, put=%v): the frame reported %+v, one at a time %+v (versions as put ordinals)",
					f, i, ops[i].key, ops[i].puts != nil, got[i], want[i])
			}
		}
		if batched.Stats().BatchFallbacks != fb {
			fellBack++
		}
	}
	diffStates(t, "after the frames", sl.state(single), bl.state(batched))
	// With one client no wave meets a writer. What it can meet is the link a
	// put left stale when it split a sub-layer's root: the gets of that wave
	// fall back, and the first of them repairs the link (core's
	// TestGetBatchLeavesStaleLayerRootToGet) — so a frame with a fallback in
	// it used up a root split of its own, and each of those left an interior
	// node below layer 0.
	rootSplits := 0
	for _, l := range batched.Tree().Shape().Layers[1:] {
		rootSplits += l.InteriorNodes
	}
	if rootSplits == 0 {
		t.Fatal("no sub-layer outgrew its root: the frames were meant to split some")
	}
	if fellBack > rootSplits {
		t.Fatalf("waves fell back in %d frames (BatchFallbacks = %d) on a store with one client and %d stale layer links",
			fellBack, batched.Stats().BatchFallbacks, rootSplits)
	}
}

// TestPointBatchOneKind: a put slice that turns out all gets or all puts is
// the all-get or all-put call — no write window for gets alone, versions for
// puts alone — and the two faces with fixed signatures are those calls.
func TestPointBatchOneKind(t *testing.T) {
	mem := vfs.NewMemFS()
	if err := mem.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := Open(chainCfg(mem))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.Session(0)
	defer sess.Close()
	keys := [][]byte{[]byte("a"), []byte("b"), []byte("a")}
	puts := [][]value.ColPut{col0("1"), col0("2"), col0("3")}

	vals, found, vers := sess.PointBatchInto(keys, []bool{true, true, true}, puts)
	if vals != nil || found != nil || len(vers) != 3 || !(vers[0] < vers[2]) {
		t.Fatalf("all puts: vals %v found %v vers %v", vals, found, vers)
	}
	last := vers[2] // vers is the session's scratch
	if again := sess.PutBatchInto(keys, puts); len(again) != 3 || again[0] <= last {
		t.Fatalf("PutBatchInto: vers %v after %d", again, last)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	logged := func() int {
		res, err := wal.RecoverDirFS(mem, "d")
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Records)
	}
	before := logged()
	vals, found, vers = sess.PointBatchInto(keys, []bool{false, false, false}, puts)
	if vers != nil || !found[0] || !found[1] || string(vals[2].Col(0)) != "3" {
		t.Fatalf("all gets: vals %v found %v vers %v", vals, found, vers)
	}
	v2, f2 := sess.GetBatchInto(keys)
	if !f2[0] || v2[0] != vals[0] || v2[1] != vals[1] {
		t.Fatalf("GetBatchInto disagrees with the all-get call: %v %v", v2, f2)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if after := logged(); after != before {
		t.Fatalf("gets logged %d records", after-before)
	}
}

// TestMixedSegmentsReplay is the restart test for logs written through mixed
// frames: two workers trade frames over shared keys — same-key put pairs
// inside a frame, partial-column puts, gets between them, every frame that
// follows the other worker's a handoff — and the directory is reopened. Every
// key must come back at its exact version and bytes with no broken chain, and
// the log itself must link each key's records head to tail: a record's prev
// is the version of the record before it, or 0 where the chain is anchored.
func TestMixedSegmentsReplay(t *testing.T) {
	mem := vfs.NewMemFS()
	if err := mem.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := Open(chainCfg(mem))
	if err != nil {
		t.Fatal(err)
	}
	sess := [2]*Session{s.Session(0), s.Session(1)}
	puts := 0
	for f, ops := range randomFrames(rand.New(rand.NewSource(5)), 200, 24) {
		ops = append(ops, // a same-key pair with a get between, whatever else the frame holds
			putOp("pair", value.ColPut{Col: f % 3, Data: []byte(fmt.Sprintf("p%d", f))}), getOp("pair"),
			putOp("pair", value.ColPut{Col: (f + 1) % 3, Data: []byte(fmt.Sprintf("q%d", f))}))
		res := runFrame(sess[f/3%2], ops)
		if n := len(ops); res[n-2].ver != res[n-3].ver || res[n-1].ver <= res[n-3].ver {
			t.Fatalf("frame %d: the pair's versions %d, get %d, %d", f, res[n-3].ver, res[n-2].ver, res[n-1].ver)
		}
		for _, op := range ops {
			if op.puts != nil {
				puts++
			}
		}
	}
	want := snapshotState(s)
	sess[0].Close()
	sess[1].Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := wal.RecoverDirFS(mem, "d")
	if err != nil {
		t.Fatal(err)
	}
	records, anchors := 0, 0
	res.ReplayByKey(1, func(recs []wal.Record) {
		for i, rec := range recs {
			records++
			switch {
			case !rec.Op.HasPrev() || rec.Prev == 0:
				anchors++
			case i == 0 || rec.Prev != recs[i-1].TS:
				t.Errorf("key %q: record %d (version %d) links to %d, the record before it is %v", rec.Key, i, rec.TS, rec.Prev, recs[max(i-1, 0)].TS)
			}
		}
	})
	if records != puts {
		t.Fatalf("the log holds %d records for %d puts", records, puts)
	}
	if anchors < 100 || anchors == records {
		t.Fatalf("%d of %d records are anchors: the run was meant to mix handoffs and linked deltas", anchors, records)
	}

	r, err := Open(chainCfg(mem))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.RecoveryStats(); st.BrokenChains != 0 || st.MissingLogs != 0 {
		t.Fatalf("recovery stats %+v, want no broken chain and no missing log", st)
	}
	diffStates(t, "after the restart", want, snapshotState(r))
}
