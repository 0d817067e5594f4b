package kvstore

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/model"
	"repro/internal/value"
)

// TestConcurrentSessionsWithLogging runs several sessions writing and
// reading concurrently with logging on, plus checkpoints, while the workers
// advance the clock through maintenance ticks and log flushes. Each worker
// writes only its own keys, so each key's final state is what its worker's
// model computes from the worker's operations; the live store and a
// recovered copy are both held to the union of those models.
func TestConcurrentSessionsWithLogging(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Workers: 4}
	wall := clock.NewFake()
	s := openAt(t, cfg, wall)
	const workers = 4
	const perWorker = 2500
	truth := make([]*model.Model, workers) // truth[w]: the keys worker w writes
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		truth[w] = model.New()
		wg.Add(1)
		go func(w int, m *model.Model) {
			defer wg.Done()
			sess := s.Session(w)
			for i := 0; i < perWorker; i++ {
				if i%100 == 0 {
					wall.Advance(maintainTick)
				}
				k := fmt.Sprintf("w%d-%05d", w, i)
				puts := []value.ColPut{{Col: 0, Data: []byte(k)}, {Col: 1, Data: []byte{byte(w)}}}
				m.Put(k, sess.Put([]byte(k), puts), 0, mputs(puts)...)
				if i%7 == 0 {
					want, _ := m.Get(k, 0)
					if v, ok := sess.GetValue([]byte(k)); !ok || !stateOf(v).Equal(want) {
						t.Errorf("read-own-write of %q: %v (present %v), the model %v", k, v, ok, want)
						return
					}
				}
				if i%13 == 0 {
					r := fmt.Sprintf("w%d-%05d", w, i/2)
					if got, want := sess.Remove([]byte(r)), m.Remove(r, 0); got != want {
						t.Errorf("Remove(%q) reported %v, the model %v", r, got, want)
						return
					}
				}
			}
		}(w, truth[w])
	}
	ckptDone := make(chan struct{})
	go func() {
		defer close(ckptDone)
		for i := 0; i < 3; i++ {
			if _, _, err := s.CheckpointN(0); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-ckptDone
	checkModels(t, "live", truth, snapshotState(s))
	r := restart(t, s, cfg)
	checkModels(t, "recovered", truth, snapshotState(r))
}

// TestConcurrentGetRangeDuringPuts ensures range queries stay ordered and
// complete while writers insert.
func TestConcurrentGetRangeDuringPuts(t *testing.T) {
	s := openAt(t, Config{}, clock.NewFake())
	ss := s.Session(0)
	for i := 0; i < 1000; i++ {
		ss.PutSimple([]byte(fmt.Sprintf("stable%05d", i)), []byte("x"))
	}
	var stop bool
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := s.Session(0)
		for i := 0; ; i++ {
			mu.Lock()
			if stop {
				mu.Unlock()
				return
			}
			mu.Unlock()
			w.PutSimple([]byte(fmt.Sprintf("churn%06d", i%5000)), []byte("y"))
		}
	}()
	for round := 0; round < 50; round++ {
		pairs := ss.GetRangeInto([]byte("stable"), 1000, []int{0}, new(RangeScratch))
		cnt := 0
		for _, p := range pairs {
			if string(p.Key) >= "stable" && string(p.Key) < "stablf" {
				cnt++
			}
		}
		if cnt != 1000 {
			t.Fatalf("round %d: saw %d stable keys", round, cnt)
		}
	}
	mu.Lock()
	stop = true
	mu.Unlock()
	wg.Wait()
}
