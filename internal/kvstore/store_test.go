package kvstore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/value"
)

// openAt opens a store with cfg on the wall clock wall, failing the test if
// it cannot, and closes it when the test ends unless the test closed or
// crashed it first. On a clock.Fake the store's maintenance tick and log
// flushes wait for the test to advance the clock, so a test's own
// cacheMaintain calls race no pass.
func openAt(t testing.TB, cfg Config, wall clock.Clock) *Store {
	t.Helper()
	s, err := open(cfg, wall)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		select {
		case <-s.stop: // closed or crashed already
		default:
			s.Close()
		}
	})
	return s
}

// nanosIn is the time d from now on s's wall clock, in unix nanoseconds: an
// expiry, or with d = 0 the instant expiry is judged at.
func nanosIn(s *Store, d time.Duration) uint64 { return uint64(s.wall.Now().Add(d).UnixNano()) }

// sessions opens n sessions on s, the i-th bound to worker i.
func sessions(s *Store, n int) []*Session {
	ss := make([]*Session, n)
	for w := range ss {
		ss[w] = s.Session(w)
	}
	return ss
}

func TestBasicOps(t *testing.T) {
	mr := newMirror(t, openAt(t, Config{}, clock.NewFake()), 1)
	mr.putW(0, "k1", col(0, "v1"))
	mr.readBack("get", 0, "nope")
	mr.removeW(0, "k1")
	mr.readBack("get", 0, "k1")
}

func TestColumnOps(t *testing.T) {
	ss := openAt(t, Config{}, clock.NewFake()).Session(0)
	ss.Put([]byte("k"), []value.ColPut{{Col: 0, Data: []byte("a")}, {Col: 2, Data: []byte("c")}})
	v, ok := ss.GetValue([]byte("k"))
	got := AppendCols(nil, v, []int{2, 0})
	if !ok || string(got[0]) != "c" || string(got[1]) != "a" {
		t.Fatalf("column get: %q %v", got, ok)
	}
	// Partial update keeps other columns.
	ss.Put([]byte("k"), []value.ColPut{{Col: 0, Data: []byte("A")}})
	v, _ = ss.GetValue([]byte("k"))
	if string(v.Col(0)) != "A" || string(v.Col(2)) != "c" {
		t.Fatalf("after partial put: %q", v.Cols())
	}
}

func TestVersionsIncrease(t *testing.T) {
	ss := sessions(openAt(t, Config{}, clock.NewFake()), 2)
	v1 := ss[0].PutSimple([]byte("k"), []byte("1"))
	v2 := ss[0].PutSimple([]byte("k"), []byte("2"))
	v3 := ss[1].PutSimple([]byte("other"), []byte("3"))
	if !(v1 < v2 && v2 < v3) {
		t.Fatalf("versions not increasing: %d %d %d", v1, v2, v3)
	}
}

func TestGetRange(t *testing.T) {
	ss := openAt(t, Config{}, clock.NewFake()).Session(0)
	for i := 0; i < 50; i++ {
		ss.Put([]byte(fmt.Sprintf("key%03d", i)), []value.ColPut{
			{Col: 0, Data: []byte(fmt.Sprintf("a%d", i))},
			{Col: 1, Data: []byte(fmt.Sprintf("b%d", i))},
		})
	}
	pairs := ss.GetRangeInto([]byte("key010"), 5, []int{1}, new(RangeScratch))
	if len(pairs) != 5 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	for i, p := range pairs {
		wantKey := fmt.Sprintf("key%03d", 10+i)
		if string(p.Key) != wantKey || string(p.Cols[0]) != fmt.Sprintf("b%d", 10+i) {
			t.Fatalf("pair %d = %q/%q", i, p.Key, p.Cols[0])
		}
	}
}

func TestRecoveryFromLogs(t *testing.T) {
	dir := t.TempDir()
	s := openAt(t, Config{Dir: dir, Workers: 2}, clock.NewFake())
	mr := newMirror(t, s, 2)
	const n = 500
	maxSeen := uint64(0)
	for i := 0; i < n; i++ {
		maxSeen = max(maxSeen, mr.putW(i%2, fmt.Sprintf("key%04d", i), col(0, fmt.Sprintf("v%d", i))))
	}
	mr.removeW(0, "key0000")
	maxSeen = max(maxSeen, mr.putW(1, "key0001", col(0, "updated")))

	r := restart(t, s, Config{Dir: dir, Workers: 2})
	mr.matches(r, "recovered")
	// New writes must get versions above everything recovered (the sharded
	// clocks are seeded from the logs' maximum durable timestamp).
	v := sessions(r, 1)[0].PutSimple([]byte("fresh"), []byte("x"))
	if v <= maxSeen {
		t.Fatalf("clock not restored: new version %d <= pre-crash max %d", v, maxSeen)
	}
}

func TestRecoveryWithCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := openAt(t, Config{Dir: dir, Workers: 2}, clock.NewFake())
	mr := newMirror(t, s, 2)
	for i := 0; i < 300; i++ {
		mr.putW(0, fmt.Sprintf("key%04d", i), col(0, "pre"))
	}
	if _, n, err := s.CheckpointN(0); err != nil || n != 300 {
		t.Fatalf("checkpoint: n=%d err=%v", n, err)
	}
	// Post-checkpoint mutations live only in the logs.
	for i := 200; i < 400; i++ {
		mr.putW(1, fmt.Sprintf("key%04d", i), col(0, "post"))
	}
	mr.removeW(0, "key0000")

	r := restart(t, s, Config{Dir: dir, Workers: 2})
	mr.matches(r, "recovered")
}

func TestCheckpointDuringWrites(t *testing.T) {
	dir := t.TempDir()
	s := openAt(t, Config{Dir: dir, Workers: 2}, clock.NewFake())
	done := make(chan struct{})
	go func() {
		defer close(done)
		ss := s.Session(0)
		for i := 0; i < 2000; i++ {
			ss.PutSimple([]byte(fmt.Sprintf("bg%05d", i)), []byte("x"))
		}
	}()
	for i := 0; i < 3; i++ {
		if _, _, err := s.CheckpointN(0); err != nil {
			t.Fatal(err)
		}
	}
	<-done

	r := restart(t, s, Config{Dir: dir, Workers: 2})
	rs := sessions(r, 1)[0]
	if r.Len() != 2000 {
		t.Fatalf("recovered %d keys, want 2000", r.Len())
	}
	for i := 0; i < 2000; i++ {
		if _, ok := rs.GetValue([]byte(fmt.Sprintf("bg%05d", i))); !ok {
			t.Fatalf("lost bg%05d", i)
		}
	}
}

// TestRecoveryRemoveReinsert checks version ordering across remove and
// re-insert of the same key (the global counter makes replay unambiguous).
func TestRecoveryRemoveReinsert(t *testing.T) {
	dir := t.TempDir()
	s := openAt(t, Config{Dir: dir, Workers: 2}, clock.NewFake())
	mr := newMirror(t, s, 2)
	for _, v := range []string{"first", "second", "third"} {
		if v != "first" {
			mr.removeW(1, "k")
		}
		mr.putW(0, "k", col(0, v))
	}

	r := restart(t, s, Config{Dir: dir, Workers: 2})
	mr.matches(r, "recovered")
}

// TestRecoveryPartialColumns checks that column deltas replay correctly.
func TestRecoveryPartialColumns(t *testing.T) {
	dir := t.TempDir()
	s := openAt(t, Config{Dir: dir, Workers: 2}, clock.NewFake())
	mr := newMirror(t, s, 2)
	mr.putW(0, "k", col(0, "a"), col(1, "b"))
	mr.putW(1, "k", col(1, "B"))
	mr.putW(0, "k", col(2, "c"))

	r := restart(t, s, Config{Dir: dir, Workers: 2})
	mr.matches(r, "recovered")
}

func TestSessionOps(t *testing.T) {
	mr := newMirror(t, openAt(t, Config{}, clock.NewFake()), 1)
	mr.putW(0, "k", col(0, "v"))
	mr.removeW(0, "k")
	if pairs := mr.sess[0].GetRangeInto(nil, 10, nil, new(RangeScratch)); len(pairs) != 0 {
		t.Fatalf("range after remove: %v", pairs)
	}
}

func TestCheckpointReclaimsLogs(t *testing.T) {
	dir := t.TempDir()
	s := openAt(t, Config{Dir: dir, Workers: 2}, clock.NewFake())
	ss := sessions(s, 1)[0]
	for i := 0; i < 100; i++ {
		ss.PutSimple([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	s.Flush()
	if _, _, err := s.CheckpointN(0); err != nil {
		t.Fatal(err)
	}
	// Only the current (post-rotation) generation of logs should remain,
	// and it should be nearly empty.
	r := restart(t, s, Config{Dir: dir, Workers: 2})
	if r.Len() != 100 {
		t.Fatalf("recovered %d keys", r.Len())
	}
}

// TestMaintainLoopCollapsesLayers: one maintenance tick alone collapses a
// layer that removes emptied, while two other sessions read through it with
// GetValue and GetRangeInto and see each key absent or at its value.
func TestMaintainLoopCollapsesLayers(t *testing.T) {
	wall := clock.NewFake()
	s := openAt(t, Config{}, wall)
	ss := sessions(s, 3)
	// Five keys of one slice: one more than a twig holds, so a layer.
	keys := []string{"01234567AB", "01234567CD", "01234567EF", "01234567GH", "01234567XY"}
	want := map[string]string{}
	for _, k := range keys {
		want[k] = "v-" + k
	}
	check := func(op string, k, got []byte) {
		if w, ok := want[string(k)]; !ok || string(got) != w {
			t.Errorf("%s: %q = %q, want absent or %q", op, k, got, w)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			for _, k := range keys {
				if v, ok := ss[1].GetValue([]byte(k)); ok {
					check("GetValue", []byte(k), v.Col(0))
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		var sc RangeScratch
		for !stop.Load() {
			sc.Reset()
			for _, p := range ss[2].GetRangeInto([]byte("01234567"), len(keys)+1, nil, &sc) {
				check("GetRangeInto", p.Key, p.Cols[0])
			}
		}
	}()
	for _, k := range keys {
		ss[0].PutSimple([]byte(k), []byte(want[k]))
	}
	for _, k := range keys {
		if !ss[0].Remove([]byte(k)) {
			t.Errorf("Remove(%q) found nothing", k)
		}
	}
	if n := s.Stats().LayerCollapses; n != 0 {
		t.Errorf("LayerCollapses = %d before the tick, want 0", n)
	}
	wall.Advance(maintainTick)
	waitUntil(t, func() bool { return s.Stats().LayerCollapses == 1 })
	stop.Store(true)
	wg.Wait()
}
