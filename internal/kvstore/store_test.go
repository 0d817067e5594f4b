package kvstore

import (
	"bytes"
	"fmt"
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

func TestBasicOps(t *testing.T) {
	s := openMem(t)
	s.PutSimple(0, []byte("k1"), []byte("v1"))
	got, ok := s.Get([]byte("k1"), nil)
	if !ok || string(got[0]) != "v1" {
		t.Fatalf("get: %v %v", got, ok)
	}
	if _, ok := s.Get([]byte("nope"), nil); ok {
		t.Fatal("phantom key")
	}
	if !s.Remove(0, []byte("k1")) {
		t.Fatal("remove failed")
	}
	if _, ok := s.Get([]byte("k1"), nil); ok {
		t.Fatal("key survived remove")
	}
}

func TestColumnOps(t *testing.T) {
	s := openMem(t)
	s.Put(0, []byte("k"), []value.ColPut{{Col: 0, Data: []byte("a")}, {Col: 2, Data: []byte("c")}})
	got, ok := s.Get([]byte("k"), []int{2, 0})
	if !ok || string(got[0]) != "c" || string(got[1]) != "a" {
		t.Fatalf("column get: %q %v", got, ok)
	}
	// Partial update keeps other columns.
	s.Put(0, []byte("k"), []value.ColPut{{Col: 0, Data: []byte("A")}})
	got, _ = s.Get([]byte("k"), nil)
	if string(got[0]) != "A" || string(got[2]) != "c" {
		t.Fatalf("after partial put: %q", got)
	}
}

func TestVersionsIncrease(t *testing.T) {
	s := openMem(t)
	v1 := s.PutSimple(0, []byte("k"), []byte("1"))
	v2 := s.PutSimple(0, []byte("k"), []byte("2"))
	v3 := s.PutSimple(1, []byte("other"), []byte("3"))
	if !(v1 < v2 && v2 < v3) {
		t.Fatalf("versions not increasing: %d %d %d", v1, v2, v3)
	}
}

func TestGetRange(t *testing.T) {
	s := openMem(t)
	for i := 0; i < 50; i++ {
		s.Put(0, []byte(fmt.Sprintf("key%03d", i)), []value.ColPut{
			{Col: 0, Data: []byte(fmt.Sprintf("a%d", i))},
			{Col: 1, Data: []byte(fmt.Sprintf("b%d", i))},
		})
	}
	pairs := s.GetRange([]byte("key010"), 5, []int{1})
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
	const n = 500
	maxSeen := uint64(0)
	for i := 0; i < n; i++ {
		v := s.PutSimple(i%2, []byte(fmt.Sprintf("key%04d", i)), []byte(fmt.Sprintf("v%d", i)))
		if v > maxSeen {
			maxSeen = v
		}
	}
	s.Remove(0, []byte("key0000"))
	if v := s.PutSimple(1, []byte("key0001"), []byte("updated")); v > maxSeen {
		maxSeen = v
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openDir(t, dir)
	defer r.Close()
	if r.Len() != n-1 {
		t.Fatalf("recovered %d keys, want %d", r.Len(), n-1)
	}
	if _, ok := r.Get([]byte("key0000"), nil); ok {
		t.Fatal("removed key resurrected")
	}
	got, ok := r.Get([]byte("key0001"), nil)
	if !ok || string(got[0]) != "updated" {
		t.Fatalf("key0001 = %q %v", got, ok)
	}
	for i := 2; i < n; i++ {
		k := []byte(fmt.Sprintf("key%04d", i))
		got, ok := r.Get(k, nil)
		if !ok || string(got[0]) != fmt.Sprintf("v%d", i) {
			t.Fatalf("lost %q after recovery", k)
		}
	}
	// New writes must get versions above everything recovered (the sharded
	// clocks are seeded from the logs' maximum durable timestamp).
	v := r.PutSimple(0, []byte("fresh"), []byte("x"))
	if v <= maxSeen {
		t.Fatalf("clock not restored: new version %d <= pre-crash max %d", v, maxSeen)
	}
}

func TestRecoveryWithCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := openDir(t, dir)
	for i := 0; i < 300; i++ {
		s.PutSimple(0, []byte(fmt.Sprintf("key%04d", i)), []byte("pre"))
	}
	if _, n, err := s.Checkpoint(); err != nil || n != 300 {
		t.Fatalf("checkpoint: n=%d err=%v", n, err)
	}
	// Post-checkpoint mutations live only in the logs.
	for i := 200; i < 400; i++ {
		s.PutSimple(1, []byte(fmt.Sprintf("key%04d", i)), []byte("post"))
	}
	s.Remove(0, []byte("key0000"))
	s.Close()

	r := openDir(t, dir)
	defer r.Close()
	if r.Len() != 399 {
		t.Fatalf("recovered %d keys, want 399", r.Len())
	}
	for i := 1; i < 400; i++ {
		k := []byte(fmt.Sprintf("key%04d", i))
		want := "pre"
		if i >= 200 {
			want = "post"
		}
		got, ok := r.Get(k, nil)
		if !ok || string(got[0]) != want {
			t.Fatalf("%q = %q,%v want %q", k, got, ok, want)
		}
	}
}

func TestCheckpointDuringWrites(t *testing.T) {
	dir := t.TempDir()
	s := openDir(t, dir)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			s.PutSimple(0, []byte(fmt.Sprintf("bg%05d", i)), []byte("x"))
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
	if r.Len() != 2000 {
		t.Fatalf("recovered %d keys, want 2000", r.Len())
	}
	for i := 0; i < 2000; i++ {
		if _, ok := r.Get([]byte(fmt.Sprintf("bg%05d", i)), nil); !ok {
			t.Fatalf("lost bg%05d", i)
		}
	}
}

// TestRecoveryRemoveReinsert checks version ordering across remove and
// re-insert of the same key (the global counter makes replay unambiguous).
func TestRecoveryRemoveReinsert(t *testing.T) {
	dir := t.TempDir()
	s := openDir(t, dir)
	s.PutSimple(0, []byte("k"), []byte("first"))
	s.Remove(1, []byte("k"))
	s.PutSimple(0, []byte("k"), []byte("second"))
	s.Remove(1, []byte("k"))
	s.PutSimple(0, []byte("k"), []byte("third"))
	s.Close()

	r := openDir(t, dir)
	defer r.Close()
	got, ok := r.Get([]byte("k"), nil)
	if !ok || string(got[0]) != "third" {
		t.Fatalf("k = %q,%v want third", got, ok)
	}
}

// TestRecoveryPartialColumns checks that column deltas replay correctly.
func TestRecoveryPartialColumns(t *testing.T) {
	dir := t.TempDir()
	s := openDir(t, dir)
	s.Put(0, []byte("k"), []value.ColPut{{Col: 0, Data: []byte("a")}, {Col: 1, Data: []byte("b")}})
	s.Put(1, []byte("k"), []value.ColPut{{Col: 1, Data: []byte("B")}})
	s.Put(0, []byte("k"), []value.ColPut{{Col: 2, Data: []byte("c")}})
	s.Close()

	r := openDir(t, dir)
	defer r.Close()
	got, ok := r.Get([]byte("k"), nil)
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
	defer ss.Close()
	ss.PutSimple([]byte("k"), []byte("v"))
	got, ok := ss.Get([]byte("k"), nil)
	if !ok || !bytes.Equal(got[0], []byte("v")) {
		t.Fatal("session get failed")
	}
	if !ss.Remove([]byte("k")) {
		t.Fatal("session remove failed")
	}
	if pairs := ss.GetRange(nil, 10, nil); len(pairs) != 0 {
		t.Fatalf("range after remove: %v", pairs)
	}
}

func TestCheckpointReclaimsLogs(t *testing.T) {
	dir := t.TempDir()
	s := openDir(t, dir)
	for i := 0; i < 100; i++ {
		s.PutSimple(0, []byte(fmt.Sprintf("k%03d", i)), []byte("v"))
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

func TestMaintainLoopCollapsesLayers(t *testing.T) {
	s, err := Open(Config{MaintainEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Five keys of one slice: one more than a twig holds, so a layer.
	keys := []string{"01234567AB", "01234567CD", "01234567EF", "01234567GH", "01234567XY"}
	for _, k := range keys {
		s.PutSimple(0, []byte(k), []byte("1"))
	}
	for _, k := range keys {
		s.Remove(0, []byte(k))
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().LayerCollapses == 0 {
		if time.Now().After(deadline) {
			t.Fatal("maintenance loop never collapsed the empty layer")
		}
		time.Sleep(time.Millisecond)
	}
}
