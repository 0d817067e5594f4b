package kvstore

import (
	"fmt"
	"strconv"
	"sync"
	"testing"

	"repro/internal/value"
)

func col0(data string) []value.ColPut {
	return []value.ColPut{{Col: 0, Data: []byte(data)}}
}

func TestCasPutSemantics(t *testing.T) {
	s, err := Open(Config{MaintainEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ss := sessions(t, s, 1)[0]
	key := []byte("counter")

	// Expect-absent on an absent key: atomic create.
	v1, ok := ss.CasPut(key, 0, col0("one"))
	if !ok || v1 == 0 {
		t.Fatalf("create cas: ver=%d ok=%v", v1, ok)
	}

	// Expect-absent again: conflict reporting the current version.
	if cur, ok := ss.CasPut(key, 0, col0("nope")); ok || cur != v1 {
		t.Fatalf("stale create cas: ver=%d ok=%v want ver=%d", cur, ok, v1)
	}

	// Correct expectation: the write applies and versions advance.
	v2, ok := ss.CasPut(key, v1, col0("two"))
	if !ok || v2 <= v1 {
		t.Fatalf("cas update: ver=%d ok=%v (prev %d)", v2, ok, v1)
	}
	if got, ok := ss.GetValue(key); !ok || string(got.Col(0)) != "two" {
		t.Fatalf("after cas: %q %v", got.Cols(), ok)
	}

	// Stale expectation: conflict, value untouched.
	if cur, ok := ss.CasPut(key, v1, col0("lost")); ok || cur != v2 {
		t.Fatalf("stale cas: ver=%d ok=%v want %d", cur, ok, v2)
	}
	if got, _ := ss.GetValue(key); string(got.Col(0)) != "two" {
		t.Fatalf("stale cas mutated value: %q", got.Cols())
	}

	// Expecting a version on an absent key: conflict with version 0.
	if cur, ok := ss.CasPut([]byte("ghost"), 7, col0("x")); ok || cur != 0 {
		t.Fatalf("cas on absent: ver=%d ok=%v", cur, ok)
	}
	if _, ok := ss.GetValue([]byte("ghost")); ok {
		t.Fatal("conflicting cas inserted a key")
	}

	// A remove resets the key to "absent": expect-0 succeeds again and the
	// new version stays above the removed one (no version regression).
	if !ss.Remove(key) {
		t.Fatal("remove failed")
	}
	v3, ok := ss.CasPut(key, 0, col0("three"))
	if !ok || v3 <= v2 {
		t.Fatalf("cas after remove: ver=%d ok=%v (prev %d)", v3, ok, v2)
	}
}

// A successful CasPut is logged as an ordinary put: it must survive crash
// recovery exactly like Put, and a conflicting CasPut must leave no trace.
func TestCasPutRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Workers: 2, MaintainEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	ss := sessions(t, s, 2)
	v1, ok := ss[0].CasPut([]byte("k"), 0, col0("created"))
	if !ok {
		t.Fatal("create cas failed")
	}
	v2, ok := ss[1].CasPut([]byte("k"), v1, col0("updated"))
	if !ok {
		t.Fatal("update cas failed")
	}
	if _, ok := ss[0].CasPut([]byte("k"), v1, col0("conflicted")); ok {
		t.Fatal("stale cas succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Config{Dir: dir, Workers: 2, MaintainEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	v, ok := sessions(t, r, 1)[0].GetValue([]byte("k"))
	if !ok || string(v.Col(0)) != "updated" {
		t.Fatalf("recovered %q ok=%v", v.Col(0), ok)
	}
	if v.Version() != v2 {
		t.Fatalf("recovered version %d want %d", v.Version(), v2)
	}
}

// Concurrent CAS-increment on one key: every increment must be applied
// exactly once (no lost updates), the defining linearizability property of
// compare-and-swap. Run with -race in CI.
func TestCasPutConcurrentIncrement(t *testing.T) {
	s, err := Open(Config{Workers: 4, MaintainEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	key := []byte("ctr")
	ss := sessions(t, s, 1)[0]
	if _, ok := ss.CasPut(key, 0, col0("0")); !ok {
		t.Fatal("seed failed")
	}

	const goroutines = 4
	const increments = 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			sess := s.Session(worker)
			defer sess.Close()
			for i := 0; i < increments; i++ {
				for {
					v, ok := sess.GetValue(key)
					if !ok {
						t.Error("counter vanished")
						return
					}
					n, err := strconv.Atoi(string(v.Col(0)))
					if err != nil {
						t.Errorf("bad counter: %v", err)
						return
					}
					if _, ok := sess.CasPut(key, v.Version(), col0(fmt.Sprint(n+1))); ok {
						break
					}
				}
			}
		}(g)
	}
	wg.Wait()

	got, _ := ss.GetValue(key)
	if want := fmt.Sprint(goroutines * increments); string(got.Col(0)) != want {
		t.Fatalf("lost updates: counter=%q want %s", got.Col(0), want)
	}
}
