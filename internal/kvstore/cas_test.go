package kvstore

import (
	"fmt"
	"strconv"
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/value"
)

func col0(data string) []value.ColPut {
	return []value.ColPut{{Col: 0, Data: []byte(data)}}
}

// TestCasPutSemantics walks CasPut through create, conflict, update, a
// stale expectation, an absent key and a remove; the model says which
// applies and which version each conflict reports.
func TestCasPutSemantics(t *testing.T) {
	s := openAt(t, Config{}, clock.NewFake())
	mr := newMirror(t, s, 1)
	v1, _ := mr.casW(0, "counter", 0, col(0, "one")) // expect-absent on an absent key: atomic create
	mr.casW(0, "counter", 0, col(0, "nope"))         // again: a conflict
	v2, _ := mr.casW(0, "counter", v1, col(0, "two"))
	mr.casW(0, "counter", v1, col(0, "lost")) // stale: the value is untouched
	mr.casW(0, "ghost", 7, col(0, "x"))       // a version expected of an absent key
	// A remove resets the key to "absent": expect-0 succeeds again and the
	// new version stays above the removed one (no version regression).
	mr.removeW(0, "counter")
	mr.casW(0, "counter", 0, col(0, "three"))
	if v1 == 0 || v2 <= v1 {
		t.Fatalf("versions %d, %d", v1, v2)
	}
}

// A successful CasPut is logged as an ordinary put: it must survive crash
// recovery exactly like Put, and a conflicting CasPut must leave no trace.
func TestCasPutRecovery(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), Workers: 2}
	s := openAt(t, cfg, clock.NewFake())
	mr := newMirror(t, s, 2)
	v1, _ := mr.casW(0, "k", 0, col(0, "created"))
	mr.casW(1, "k", v1, col(0, "updated"))
	mr.casW(0, "k", v1, col(0, "conflicted"))
	mr.matches(restart(t, s, cfg), "recovered")
}

// Concurrent CAS-increment on one key: every increment must be applied
// exactly once (no lost updates), the defining linearizability property of
// compare-and-swap. Run with -race in CI.
func TestCasPutConcurrentIncrement(t *testing.T) {
	s := openAt(t, Config{Workers: 4}, clock.NewFake())
	key := []byte("ctr")
	ss := sessions(s, 1)[0]
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
