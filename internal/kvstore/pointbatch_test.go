package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/clock"
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

// TestPointBatchFrameOrder pins the ordering contract of a mixed frame:
// operations on one key take effect in frame order — a get behind a put
// reads what that put published, a get ahead of every put of its key reads
// what was there before the frame, versions ascend along a key — whatever
// happens between different keys.
func TestPointBatchFrameOrder(t *testing.T) {
	mr := newMirror(t, openAt(t, Config{}, clock.NewFake()), 1)
	mr.putW(0, "j", col(0, "j-old"))
	mr.putW(0, "record", col(0, "a"), col(1, "b"), col(2, "c"))
	mr.putTTLW(0, "lapsed", -time.Second, col(0, "dead"))
	res := mr.frame(0,
		putOp("k", col(0, "v1")), getOp("k"), putOp("k", col(0, "v2")), getOp("k"), // 0..3
		getOp("j"), putOp("j", col(0, "w")), // 4, 5: a get ahead of its key's put
		putOp("record", col(1, "B")), getOp("record"), // 6, 7: a partial-column put, then all columns
		getOp("lapsed"), putOp("lapsed", col(1, "reborn")), getOp("lapsed"), // 8..10: the dead column stays dead
		getOp("nowhere"), // 11
	)
	if !(res[0].ver > 0 && res[0].ver < res[2].ver) {
		t.Errorf("versions along k do not ascend: %d then %d", res[0].ver, res[2].ver)
	}
	if res[4].ver >= res[5].ver {
		t.Errorf("j's get read version %d, not below its later put's %d", res[4].ver, res[5].ver)
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

// TestPointBatchMatchesOneAtATime is the differential test of the mixed
// entry: random frames through PointBatchInto against the reference model,
// which applies the same operations one at a time. Every get must report
// the columns and version of the put the model says it follows, and the
// store must end up equal to the model.
func TestPointBatchMatchesOneAtATime(t *testing.T) {
	batched := openAt(t, Config{}, clock.NewFake())
	mr := newMirror(t, batched, 1)
	fellBack := 0 // frames in which a wave handed a get to Get
	for _, ops := range randomFrames(rand.New(rand.NewSource(11)), 300, 40) {
		fb := batched.Stats().BatchFallbacks
		mr.frame(0, ops...)
		if batched.Stats().BatchFallbacks != fb {
			fellBack++
		}
	}
	mr.matches(batched, "after the frames")
	// With one client no wave meets a writer. What it can meet is the link a
	// put left stale when it split a sub-layer's root: the gets of that wave
	// fall back, and the first of them repairs the link (core's
	// TestGetBatchLeavesStaleLayerRootToGet) — so a frame with a fallback in
	// it used up a root split of its own, and each of those left an interior
	// node below layer 0.
	rootSplits := 0
	for _, l := range treeShape(t, batched).Layers[1:] {
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
	s := openAt(t, chainCfg(mem), clock.NewFake())
	sess := s.Session(0)
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
		res, err := wal.RecoverDirAboveFS(mem, "d", 0)
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
// the log itself must link each key's records head to tail: a record is an
// insert, where the chain is anchored, or its prev is the version of the
// record before it.
func TestMixedSegmentsReplay(t *testing.T) {
	mem := vfs.NewMemFS()
	if err := mem.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	s := openAt(t, chainCfg(mem), clock.NewFake())
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
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := wal.RecoverDirAboveFS(mem, "d", 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := res.Records
	slices.SortFunc(recs, byKeyTS)
	records, anchors := len(recs), 0
	for i, rec := range recs {
		switch {
		case !rec.Op.HasPrev():
			anchors++
		case i == 0 || !bytes.Equal(rec.Key, recs[i-1].Key) || rec.Prev != recs[i-1].TS:
			t.Errorf("key %q: record %d (version %d) links to %d, the record before it is %v", rec.Key, i, rec.TS, rec.Prev, recs[max(i-1, 0)].TS)
		}
	}
	if records != puts {
		t.Fatalf("the log holds %d records for %d puts", records, puts)
	}
	if anchors < 100 || anchors == records {
		t.Fatalf("%d of %d records are anchors: the run was meant to mix handoffs and linked deltas", anchors, records)
	}

	r := openAt(t, chainCfg(mem), clock.NewFake())
	if st := r.RecoveryStats(); st.BrokenChains != 0 || st.MissingLogs != 0 {
		t.Fatalf("recovery stats %+v, want no broken chain and no missing log", st)
	}
	diffStates(t, "after the restart", want, snapshotState(r))
}
