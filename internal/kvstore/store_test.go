package kvstore

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/value"
)

func openMem(t *testing.T) *Store {
	t.Helper()
	s, err := Open(Config{MaintainEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func openDir(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(Config{Dir: dir, Workers: 2, FlushInterval: 5 * time.Millisecond, MaintainEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sessions opens n sessions on s, the i-th bound to worker i.
func sessions(s *Store, n int) []*Session {
	ss := make([]*Session, n)
	for w := range ss {
		ss[w] = s.Session(w)
	}
	return ss
}

// openSess is openMem with a worker-0 session.
func openSess(t *testing.T) (*Store, *Session) {
	t.Helper()
	s := openMem(t)
	return s, sessions(s, 1)[0]
}

func TestBasicOps(t *testing.T) {
	_, ss := openSess(t)
	ss.PutSimple([]byte("k1"), []byte("v1"))
	got, ok := ss.GetValue([]byte("k1"))
	if !ok || string(got.Col(0)) != "v1" {
		t.Fatalf("get: %v %v", got, ok)
	}
	if _, ok := ss.GetValue([]byte("nope")); ok {
		t.Fatal("phantom key")
	}
	if !ss.Remove([]byte("k1")) {
		t.Fatal("remove failed")
	}
	if _, ok := ss.GetValue([]byte("k1")); ok {
		t.Fatal("key survived remove")
	}
}

func TestColumnOps(t *testing.T) {
	_, ss := openSess(t)
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
	ss := sessions(openMem(t), 2)
	v1 := ss[0].PutSimple([]byte("k"), []byte("1"))
	v2 := ss[0].PutSimple([]byte("k"), []byte("2"))
	v3 := ss[1].PutSimple([]byte("other"), []byte("3"))
	if !(v1 < v2 && v2 < v3) {
		t.Fatalf("versions not increasing: %d %d %d", v1, v2, v3)
	}
}

func TestGetRange(t *testing.T) {
	_, ss := openSess(t)
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
	s := openDir(t, dir)
	ss := sessions(s, 2)
	const n = 500
	maxSeen := uint64(0)
	for i := 0; i < n; i++ {
		v := ss[i%2].PutSimple([]byte(fmt.Sprintf("key%04d", i)), []byte(fmt.Sprintf("v%d", i)))
		if v > maxSeen {
			maxSeen = v
		}
	}
	ss[0].Remove([]byte("key0000"))
	if v := ss[1].PutSimple([]byte("key0001"), []byte("updated")); v > maxSeen {
		maxSeen = v
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openDir(t, dir)
	defer r.Close()
	rs := sessions(r, 1)[0]
	if r.Len() != n-1 {
		t.Fatalf("recovered %d keys, want %d", r.Len(), n-1)
	}
	if _, ok := rs.GetValue([]byte("key0000")); ok {
		t.Fatal("removed key resurrected")
	}
	got, ok := rs.GetValue([]byte("key0001"))
	if !ok || string(got.Col(0)) != "updated" {
		t.Fatalf("key0001 = %q %v", got.Cols(), ok)
	}
	for i := 2; i < n; i++ {
		k := []byte(fmt.Sprintf("key%04d", i))
		got, ok := rs.GetValue(k)
		if !ok || string(got.Col(0)) != fmt.Sprintf("v%d", i) {
			t.Fatalf("lost %q after recovery", k)
		}
	}
	// New writes must get versions above everything recovered (the sharded
	// clocks are seeded from the logs' maximum durable timestamp).
	v := rs.PutSimple([]byte("fresh"), []byte("x"))
	if v <= maxSeen {
		t.Fatalf("clock not restored: new version %d <= pre-crash max %d", v, maxSeen)
	}
}

func TestRecoveryWithCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := openDir(t, dir)
	ss := sessions(s, 2)
	for i := 0; i < 300; i++ {
		ss[0].PutSimple([]byte(fmt.Sprintf("key%04d", i)), []byte("pre"))
	}
	if _, n, err := s.Checkpoint(); err != nil || n != 300 {
		t.Fatalf("checkpoint: n=%d err=%v", n, err)
	}
	// Post-checkpoint mutations live only in the logs.
	for i := 200; i < 400; i++ {
		ss[1].PutSimple([]byte(fmt.Sprintf("key%04d", i)), []byte("post"))
	}
	ss[0].Remove([]byte("key0000"))
	s.Close()

	r := openDir(t, dir)
	defer r.Close()
	rs := sessions(r, 1)[0]
	if r.Len() != 399 {
		t.Fatalf("recovered %d keys, want 399", r.Len())
	}
	for i := 1; i < 400; i++ {
		k := []byte(fmt.Sprintf("key%04d", i))
		want := "pre"
		if i >= 200 {
			want = "post"
		}
		got, ok := rs.GetValue(k)
		if !ok || string(got.Col(0)) != want {
			t.Fatalf("%q = %q,%v want %q", k, got.Cols(), ok, want)
		}
	}
}

func TestCheckpointDuringWrites(t *testing.T) {
	dir := t.TempDir()
	s := openDir(t, dir)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ss := s.Session(0)
		for i := 0; i < 2000; i++ {
			ss.PutSimple([]byte(fmt.Sprintf("bg%05d", i)), []byte("x"))
		}
	}()
	for i := 0; i < 3; i++ {
		if _, _, err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	s.Close()

	r := openDir(t, dir)
	defer r.Close()
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
	s := openDir(t, dir)
	ss := sessions(s, 2)
	ss[0].PutSimple([]byte("k"), []byte("first"))
	ss[1].Remove([]byte("k"))
	ss[0].PutSimple([]byte("k"), []byte("second"))
	ss[1].Remove([]byte("k"))
	ss[0].PutSimple([]byte("k"), []byte("third"))
	s.Close()

	r := openDir(t, dir)
	defer r.Close()
	got, ok := sessions(r, 1)[0].GetValue([]byte("k"))
	if !ok || string(got.Col(0)) != "third" {
		t.Fatalf("k = %q,%v want third", got.Cols(), ok)
	}
}

// TestRecoveryPartialColumns checks that column deltas replay correctly.
func TestRecoveryPartialColumns(t *testing.T) {
	dir := t.TempDir()
	s := openDir(t, dir)
	ss := sessions(s, 2)
	ss[0].Put([]byte("k"), []value.ColPut{{Col: 0, Data: []byte("a")}, {Col: 1, Data: []byte("b")}})
	ss[1].Put([]byte("k"), []value.ColPut{{Col: 1, Data: []byte("B")}})
	ss[0].Put([]byte("k"), []value.ColPut{{Col: 2, Data: []byte("c")}})
	s.Close()

	r := openDir(t, dir)
	defer r.Close()
	v, ok := sessions(r, 1)[0].GetValue([]byte("k"))
	got := v.Cols()
	if !ok || len(got) != 3 {
		t.Fatalf("k = %q,%v", got, ok)
	}
	if string(got[0]) != "a" || string(got[1]) != "B" || string(got[2]) != "c" {
		t.Fatalf("columns after recovery: %q", got)
	}
}

func TestSessionOps(t *testing.T) {
	s := openMem(t)
	ss := s.Session(0)
	ss.PutSimple([]byte("k"), []byte("v"))
	got, ok := ss.GetValue([]byte("k"))
	if !ok || !bytes.Equal(got.Col(0), []byte("v")) {
		t.Fatal("session get failed")
	}
	if !ss.Remove([]byte("k")) {
		t.Fatal("session remove failed")
	}
	if pairs := ss.GetRangeInto(nil, 10, nil, new(RangeScratch)); len(pairs) != 0 {
		t.Fatalf("range after remove: %v", pairs)
	}
}

func TestCheckpointReclaimsLogs(t *testing.T) {
	dir := t.TempDir()
	s := openDir(t, dir)
	ss := sessions(s, 1)[0]
	for i := 0; i < 100; i++ {
		ss.PutSimple([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	s.Flush()
	if _, _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Only the current (post-rotation) generation of logs should remain,
	// and it should be nearly empty.
	r := openDir(t, dir)
	defer r.Close()
	if r.Len() != 100 {
		t.Fatalf("recovered %d keys", r.Len())
	}
}

// TestMaintainLoopCollapsesLayers: the maintenance tick alone collapses a
// layer that removes emptied, while two other sessions read through it with
// GetValue and GetRangeInto and see each key absent or at its value.
func TestMaintainLoopCollapsesLayers(t *testing.T) {
	s, err := Open(Config{MaintainEvery: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
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
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().LayerCollapses != 1 {
		if time.Now().After(deadline) {
			t.Errorf("LayerCollapses = %d, want 1: the maintenance loop never collapsed the empty layer", s.Stats().LayerCollapses)
			break
		}
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
}
