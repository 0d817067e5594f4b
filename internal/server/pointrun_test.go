package server

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/wire"
)

func put(key string, cols ...wire.ColData) wire.Request {
	return wire.Request{Op: wire.OpPut, Key: []byte(key), Puts: cols}
}

func get(key string, cols ...int) wire.Request {
	return wire.Request{Op: wire.OpGet, Key: []byte(key), Cols: cols}
}

func cd(col int, data string) wire.ColData { return wire.ColData{Col: col, Data: []byte(data)} }

// joined is a get response's columns, or its status if it is not OK.
func joined(r wire.Response) string {
	if r.Status != wire.StatusOK {
		return fmt.Sprintf("status %d", r.Status)
	}
	s := ""
	for i, c := range r.Cols {
		if i > 0 {
			s += "|"
		}
		s += string(c)
	}
	return s
}

// TestMixedFrameOrder pins the ordering contract on the wire: within one
// frame, operations on one key take effect in frame order. A get behind a
// put of its key reads that put's value and version; a get ahead of its
// key's put reads the old value; a partial-column put then a get of all
// columns reads the merged record; a get of a key whose TTL has lapsed is
// NotFound in the middle of a mixed segment as anywhere else. The subtest is
// named for the tagged (v2) framing its connection speaks.
func TestMixedFrameOrder(t *testing.T) {
	t.Run("v2", testMixedFrameOrder)
}

func testMixedFrameOrder(t *testing.T) {
	srv, addr := startServer(t, "")
	c := dialConn(t, addr)
	sess := srv.store.Session(0)
	sess.PutSimple([]byte("j"), []byte("j-old"))
	sess.Put([]byte("record"), []wire.ColData{cd(0, "a"), cd(1, "b"), cd(2, "c")})
	sess.PutTTL([]byte("lapsed"), []wire.ColData{cd(0, "dead")}, uint64(time.Now().Add(-time.Second).UnixNano()))

	resps, err := c.Do([]wire.Request{
		put("k", cd(0, "v1")), get("k"), put("k", cd(0, "v2")), get("k"),
		get("j"), put("j", cd(0, "w")),
		put("record", cd(1, "B")), get("record"), get("record", 1),
		get("lapsed"), get("nowhere"),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range map[int]string{1: "v1", 3: "v2", 4: "j-old", 7: "a|B|c", 8: "B",
		9: fmt.Sprintf("status %d", wire.StatusNotFound), 10: fmt.Sprintf("status %d", wire.StatusNotFound)} {
		if got := joined(resps[i]); got != want {
			t.Errorf("request %d answered %q, want %q", i, got, want)
		}
	}
	for _, i := range []int{0, 2, 5, 6} {
		if resps[i].Status != wire.StatusOK || resps[i].Version == 0 {
			t.Errorf("put %d: status %d version %d", i, resps[i].Status, resps[i].Version)
		}
	}
	if v := resps; !(v[0].Version < v[2].Version) || v[1].Version != v[0].Version || v[3].Version != v[2].Version {
		t.Errorf("versions along k: put %d, get %d, put %d, get %d", v[0].Version, v[1].Version, v[2].Version, v[3].Version)
	}
	if resps[4].Version >= resps[5].Version || resps[7].Version != resps[6].Version {
		t.Errorf("j read at %d then put at %d; record put at %d then read at %d",
			resps[4].Version, resps[5].Version, resps[6].Version, resps[7].Version)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["batched_gets"] != 7 || stats["batched_puts"] != 4 || stats["batch_fallbacks"] != 0 {
		t.Errorf("one segment of 7 gets and 4 puts on an idle store: batched_gets=%d batched_puts=%d batch_fallbacks=%d",
			stats["batched_gets"], stats["batched_puts"], stats["batch_fallbacks"])
	}
}

// TestPointRunSegments pins the segment rule and what it counts. A maximal
// stretch of gets and puts is one segment however they alternate; every
// other opcode is a barrier executed alone, in its place; a stretch of one is
// not a segment. batched_gets + batched_puts is the length of the segments
// served, a segment is one observation — in get_batch if it holds no put, in
// put_batch otherwise — and nothing falls back on an idle store.
func TestPointRunSegments(t *testing.T) {
	srv, addr := startServer(t, "")
	c := dialConn(t, addr)
	resps, err := c.Do([]wire.Request{
		put("a", cd(0, "1")), get("a"), put("b", cd(0, "2")), get("b"), get("a"), // a segment of 5: 3 gets, 2 puts
		{Op: wire.OpRemove, Key: []byte("a")}, // a barrier
		get("a"),                              // a stretch of one: executed alone
		{Op: wire.OpCas, Key: []byte("c"), Puts: []wire.ColData{cd(0, "3")}}, // a barrier
		get("a"), get("b"), get("c"), // a segment of 3 gets
		{Op: wire.OpGetRange, Key: []byte("a"), N: 5}, // a scan alone
		put("a", cd(0, "4")), put("c", cd(1, "5")),    // a segment of 2 puts
	})
	if err != nil {
		t.Fatal(err)
	}
	miss := fmt.Sprintf("status %d", wire.StatusNotFound)
	for i, want := range map[int]string{1: "1", 3: "2", 4: "1", 6: miss, 8: miss, 9: "2", 10: "3"} {
		if got := joined(resps[i]); got != want {
			t.Errorf("request %d answered %q, want %q", i, got, want)
		}
	}
	if len(resps[11].Pairs) != 2 || string(resps[11].Pairs[0].Key) != "b" {
		t.Errorf("the scan between the segments saw %+v, want b and c", resps[11].Pairs)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]int64{
		"batched_gets": 3 + 3, "batched_puts": 2 + 2, "batch_fallbacks": 0, "batched_scans": 0,
		"lat_get_batch_count": 1, "lat_put_batch_count": 2, "lat_get_count": 1, "lat_scan_count": 1,
	} {
		if stats[key] != want {
			t.Errorf("%s = %d, want %d", key, stats[key], want)
		}
	}
	if n := srv.batchedGets.Load() + srv.batchedPuts.Load(); n != 5+3+2 {
		t.Errorf("batched_gets + batched_puts = %d, the segments held %d requests", n, 5+3+2)
	}
}

// normalizeResps maps empty and nil slices together so DeepEqual compares
// contents, not alloc-path artifacts.
func normalizeResps(in []wire.Response) []wire.Response {
	out := make([]wire.Response, len(in))
	for i, r := range in {
		if len(r.Cols) == 0 {
			r.Cols = nil
		}
		if len(r.Pairs) == 0 {
			r.Pairs = nil
		}
		for j := range r.Cols {
			if len(r.Cols[j]) == 0 {
				r.Cols[j] = nil
			}
		}
		out[i] = r
	}
	return out
}

// versionLedger rewrites versions as the ordinal of the put that drew them:
// two servers given the same operations draw different numbers (a segment
// applies its puts in tree order), but a version must name the same put on
// both.
type versionLedger struct {
	origin map[uint64]uint64
	nputs  uint64
}

func (l *versionLedger) note(reqs []wire.Request, resps []wire.Response) []wire.Response {
	out := normalizeResps(resps)
	for i := range out {
		if op := reqs[i].Op; (op == wire.OpPut || op == wire.OpCas) && out[i].Status == wire.StatusOK {
			l.nputs++
			l.origin[out[i].Version] = l.nputs
		}
		if out[i].Version != 0 {
			out[i].Version = l.origin[out[i].Version]
		}
	}
	return out
}

// TestMixedFramesMatchOneAtATime is the differential test of the segment
// path: random frames — gets and puts colliding on keys, on first slices and
// two layers down, with removes, create-if-absent CASes and scans as
// barriers among them — sent whole to one server and one request per message
// to another. Every response must agree (versions compared by the put they
// name). The subtest is named for the tagged (v2) framing its connections
// speak.
func TestMixedFramesMatchOneAtATime(t *testing.T) {
	t.Run("v2", testMixedFramesMatchOneAtATime)
}

func testMixedFramesMatchOneAtATime(t *testing.T) {
	framed, addrF := startServer(t, "")
	_, addrS := startServer(t, "")
	cf, cs := dialConn(t, addrF), dialConn(t, addrS)
	lf, ls := &versionLedger{origin: map[uint64]uint64{}}, &versionLedger{origin: map[uint64]uint64{}}
	rng := rand.New(rand.NewSource(23))
	key := func() string {
		switch rng.Intn(3) {
		case 0:
			return fmt.Sprintf("k%d", rng.Intn(30))
		case 1:
			return fmt.Sprintf("sameslice%02d", rng.Intn(20))
		}
		return fmt.Sprintf("sameslicesameslice%02d-tail", rng.Intn(20))
	}
	for f := 0; f < 200; f++ {
		reqs := make([]wire.Request, 1+rng.Intn(32))
		for i := range reqs {
			switch n := rng.Intn(20); {
			case n < 8:
				reqs[i] = get(key())
			case n < 10:
				reqs[i] = get(key(), rng.Intn(3))
			case n < 16:
				reqs[i] = put(key(), cd(rng.Intn(3), fmt.Sprintf("f%d.%d", f, i)))
			case n < 17:
				reqs[i] = put(key(), cd(0, fmt.Sprintf("f%d.%d", f, i)), cd(2, "c2"))
			case n < 18:
				reqs[i] = wire.Request{Op: wire.OpRemove, Key: []byte(key())}
			case n < 19:
				reqs[i] = wire.Request{Op: wire.OpCas, Key: []byte(key()), Puts: []wire.ColData{cd(1, "cas")}}
			default:
				reqs[i] = wire.Request{Op: wire.OpGetRange, Key: []byte(key()), N: 1 + rng.Intn(5)}
			}
		}
		whole, err := cf.Do(reqs)
		if err != nil {
			t.Fatal(err)
		}
		got := lf.note(reqs, whole)
		for i := range reqs {
			one, err := cs.Do(reqs[i : i+1])
			if err != nil {
				t.Fatal(err)
			}
			if want := ls.note(reqs[i:i+1], one)[0]; !reflect.DeepEqual(got[i], want) {
				t.Fatalf("frame %d request %d (op %d, key %q): sent whole it answered %+v, alone %+v (versions as put ordinals)",
					f, i, reqs[i].Op, reqs[i].Key, got[i], want)
			}
		}
	}
	if segmented := framed.batchedGets.Load() + framed.batchedPuts.Load(); segmented < 2000 {
		t.Fatalf("only %d requests went through point segments", segmented)
	}
}

// TestMixedSegmentAllocs pins a frame of sixteen alternating gets and puts —
// one segment — at one packed value per put and nothing else: nothing per
// get, nothing for the kinds, the hints or the responses.
func TestMixedSegmentAllocs(t *testing.T) {
	store, err := kvstore.Open(kvstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := New(store, 1)
	sess := store.Session(0)

	const batch = 16
	reqs := make([]wire.Request, batch)
	data := []wire.ColData{cd(0, "steady-state-column-data")}
	for j := range reqs {
		key := fmt.Sprintf("allocs-key-%04d", j/2*7) // each put has a get of its key right behind it
		if reqs[j] = get(key); j%2 == 0 {
			reqs[j] = wire.Request{Op: wire.OpPut, Key: []byte(key), Puts: data}
		}
	}
	sc := &connScratch{}
	srv.executeBatch(sess, reqs, len(reqs), sc) // warm the scratch
	allocs := testing.AllocsPerRun(100, func() {
		srv.executeBatch(sess, reqs, len(reqs), sc)
		if sc.resps[0].Status != wire.StatusOK || sc.resps[1].Version != sc.resps[0].Version {
			t.Fatalf("mixed segment responses: %+v", sc.resps[:2])
		}
	})
	if allocs != batch/2 {
		t.Fatalf("a segment of %d gets and %d puts allocates %.1f, want %d (one packed value per put)", batch/2, batch/2, allocs, batch/2)
	}
	if g, p := srv.batchedGets.Load(), srv.batchedPuts.Load(); g != p || g < 100*batch/2 {
		t.Fatalf("batched_gets=%d batched_puts=%d after 100 and more segments of %d each", g, p, batch/2)
	}
}
