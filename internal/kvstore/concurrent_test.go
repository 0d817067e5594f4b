package kvstore

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/value"
)

// TestConcurrentSessionsWithLogging runs several sessions writing and
// reading concurrently with logging on, plus checkpoints, then verifies the
// store and a recovered copy agree.
func TestConcurrentSessionsWithLogging(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Workers: 4, FlushInterval: 2 * time.Millisecond, MaintainEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	const perWorker = 2500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := s.Session(w)
			for i := 0; i < perWorker; i++ {
				k := []byte(fmt.Sprintf("w%d-%05d", w, i))
				sess.Put(k, []value.ColPut{{Col: 0, Data: k}, {Col: 1, Data: []byte{byte(w)}}})
				if i%7 == 0 {
					if v, ok := sess.GetValue(k); !ok || string(v.Col(0)) != string(k) {
						panic("session read-own-write failed")
					}
				}
				if i%13 == 0 {
					sess.Remove([]byte(fmt.Sprintf("w%d-%05d", w, i/2)))
				}
			}
		}(w)
	}
	ckptDone := make(chan struct{})
	go func() {
		defer close(ckptDone)
		for i := 0; i < 3; i++ {
			if _, _, err := s.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-ckptDone

	liveBefore := s.Len()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Config{Dir: dir, Workers: 4, MaintainEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rs := sessions(r, 1)[0]
	if r.Len() != liveBefore {
		t.Fatalf("recovered %d keys, had %d", r.Len(), liveBefore)
	}
	// Spot-check values and columns survived with the right contents.
	for w := 0; w < workers; w++ {
		for i := perWorker - 50; i < perWorker; i++ {
			k := []byte(fmt.Sprintf("w%d-%05d", w, i))
			v, ok := rs.GetValue(k)
			if !ok || string(v.Col(0)) != string(k) || v.Col(1)[0] != byte(w) {
				t.Fatalf("recovered %q wrong: %q %v", k, v.Cols(), ok)
			}
		}
	}
}

// TestConcurrentGetRangeDuringPuts ensures range queries stay ordered and
// complete while writers insert.
func TestConcurrentGetRangeDuringPuts(t *testing.T) {
	s, ss := openSess(t)
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
