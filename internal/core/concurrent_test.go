package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/value"
)

// TestConcurrentDisjointInserts has each goroutine insert its own key range;
// afterwards every key must be present exactly once ("no lost keys", §4.4).
func TestConcurrentDisjointInserts(t *testing.T) {
	tr := New()
	workers := 4 * runtime.GOMAXPROCS(0)
	perWorker := 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := []byte(fmt.Sprintf("w%02d-%06d", w, i))
				tr.Put(k, value.New(k))
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != workers*perWorker {
		t.Fatalf("Len = %d, want %d", tr.Len(), workers*perWorker)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			k := []byte(fmt.Sprintf("w%02d-%06d", w, i))
			v, ok := tr.Get(k)
			if !ok || !bytes.Equal(v.Col(0), k) {
				t.Fatalf("lost key %q", k)
			}
		}
	}
	checkInvariants(t, tr)
}

// TestConcurrentGetDuringInserts runs readers over a stable key set while
// writers insert around them: readers must always find the stable keys.
func TestConcurrentGetDuringInserts(t *testing.T) {
	tr := New()
	const stable = 2000
	for i := 0; i < stable; i++ {
		k := []byte(fmt.Sprintf("stable%06d", i))
		tr.Put(k, value.New(k))
	}
	var stop atomic.Bool
	var readers, writers sync.WaitGroup
	errs := make(chan string, 8)
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				k := []byte(fmt.Sprintf("stable%06d", rng.Intn(stable)))
				v, ok := tr.Get(k)
				if !ok || !bytes.Equal(v.Col(0), k) {
					select {
					case errs <- fmt.Sprintf("reader lost %q", k):
					default:
					}
					return
				}
			}
		}(int64(r))
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 30000; i++ {
				k := []byte(fmt.Sprintf("churn-%d-%06d", w, i))
				tr.Put(k, value.New(k))
			}
		}(w)
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
	checkInvariants(t, tr)
}

var seedCounter atomic.Int64

func nextSeed() int64 { return seedCounter.Add(1) }

// TestConcurrentMixedChurn runs put/get/remove over a small hot key space
// from many goroutines. Values always equal their key, so any read can be
// validated; afterwards the tree must be structurally sound and usable.
// Run with -race for full value.
func TestConcurrentMixedChurn(t *testing.T) {
	tr := New()
	workers := 2 * runtime.GOMAXPROCS(0)
	const space = 300
	const opsPer = 20000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPer; i++ {
				k := []byte(fmt.Sprintf("hot%04d", rng.Intn(space)))
				switch rng.Intn(3) {
				case 0:
					tr.Put(k, value.New(k))
				case 1:
					if v, ok := tr.Get(k); ok && !bytes.Equal(v.Col(0), k) {
						panic(fmt.Sprintf("wrong value for %q: %q", k, v.Col(0)))
					}
				case 2:
					tr.Remove(k)
				}
			}
		}(nextSeed())
	}
	wg.Wait()
	tr.Maintain()
	checkInvariants(t, tr)
	n := 0
	tr.Scan(nil, func(k []byte, v *value.Value) bool {
		if !bytes.Equal(v.Col(0), k) {
			t.Fatalf("scan: wrong value for %q", k)
		}
		n++
		return true
	})
	if n != tr.Len() {
		t.Fatalf("scan found %d keys, Len says %d", n, tr.Len())
	}
	for i := 0; i < space; i++ {
		k := []byte(fmt.Sprintf("hot%04d", i))
		tr.Put(k, value.New(k))
	}
	for i := 0; i < space; i++ {
		k := []byte(fmt.Sprintf("hot%04d", i))
		if v, ok := tr.Get(k); !ok || !bytes.Equal(v.Col(0), k) {
			t.Fatalf("post-churn put/get failed for %q", k)
		}
	}
}

// TestConcurrentLayerChurn hammers a single slice group so that layer
// creation (§4.6.3), layer descent, and removal all race.
func TestConcurrentLayerChurn(t *testing.T) {
	tr := New()
	workers := 2 * runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 8000; i++ {
				// All keys share the 8-byte prefix "sharedpf".
				k := []byte(fmt.Sprintf("sharedpf%03d", rng.Intn(40)))
				switch rng.Intn(3) {
				case 0:
					tr.Put(k, value.New(k))
				case 1:
					if v, ok := tr.Get(k); ok && !bytes.Equal(v.Col(0), k) {
						panic("wrong value in layer churn")
					}
				case 2:
					tr.Remove(k)
				}
			}
		}(nextSeed())
	}
	wg.Wait()
	tr.Maintain()
	checkInvariants(t, tr)
}

// TestConcurrentScanDuringMutation checks that scans running against
// concurrent inserts/removes return keys in sorted order and always include
// keys that are never mutated.
func TestConcurrentScanDuringMutation(t *testing.T) {
	tr := New()
	const stable = 1000
	for i := 0; i < stable; i++ {
		k := []byte(fmt.Sprintf("stable%06d", i))
		tr.Put(k, value.New(k))
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // churn writer
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; !stop.Load(); i++ {
			k := []byte(fmt.Sprintf("churn%06d", rng.Intn(2000)))
			if i%2 == 0 {
				tr.Put(k, value.New(k))
			} else {
				tr.Remove(k)
			}
		}
	}()
	for s := 0; s < 30; s++ {
		var prev []byte
		found := 0
		tr.Scan(nil, func(k []byte, v *value.Value) bool {
			if prev != nil && bytes.Compare(prev, k) >= 0 {
				t.Errorf("scan out of order: %q then %q", prev, k)
				return false
			}
			prev = append(prev[:0], k...)
			if bytes.HasPrefix(k, []byte("stable")) {
				found++
			}
			return true
		})
		if found != stable {
			t.Fatalf("scan %d: found %d stable keys, want %d", s, found, stable)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestConcurrentRemoveInsertSlotReuse exercises the §4.6.5 hazard: a get
// that located a key must not return a different key's value after a remove
// frees the slot and an insert reuses it. Values always equal their key, so
// readers can detect a mismatched return.
func TestConcurrentRemoveInsertSlotReuse(t *testing.T) {
	tr := New()
	const space = 14 // keep everything in one border node
	var stop atomic.Bool
	var readers, writers sync.WaitGroup
	var failures atomic.Int64
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				k := []byte(fmt.Sprintf("slot%02d", rng.Intn(space)))
				if v, ok := tr.Get(k); ok && !bytes.Equal(v.Col(0), k) {
					failures.Add(1)
					return
				}
			}
		}(int64(r + 100))
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50000; i++ {
				k := []byte(fmt.Sprintf("slot%02d", rng.Intn(space)))
				if i%2 == 0 {
					tr.Put(k, value.New(k))
				} else {
					tr.Remove(k)
				}
			}
		}(int64(w + 200))
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()
	if failures.Load() != 0 {
		t.Fatal("reader observed a value that was never written for its key")
	}
	if s := tr.Stats(); s.SlotReuses == 0 {
		t.Log("note: no slot reuse occurred; hazard weakly exercised")
	}
}

// TestConcurrentUpdateRMWAtomicity checks that Update read-modify-writes are
// atomic: concurrent increments of a counter must not lose updates.
func TestConcurrentUpdateRMWAtomicity(t *testing.T) {
	tr := New()
	workers := 4
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr.Update([]byte("counter"), func(old *value.Value) *value.Value {
					var n uint64
					if old != nil {
						n = uint64(old.Col(0)[0]) | uint64(old.Col(0)[1])<<8 |
							uint64(old.Col(0)[2])<<16 | uint64(old.Col(0)[3])<<24
					}
					n++
					buf := []byte{byte(n), byte(n >> 8), byte(n >> 16), byte(n >> 24)}
					return value.Apply(old, []value.ColPut{{Col: 0, Data: buf}})
				})
			}
		}()
	}
	wg.Wait()
	v, ok := tr.Get([]byte("counter"))
	if !ok {
		t.Fatal("counter missing")
	}
	got := uint64(v.Col(0)[0]) | uint64(v.Col(0)[1])<<8 | uint64(v.Col(0)[2])<<16 | uint64(v.Col(0)[3])<<24
	if got != uint64(workers*perWorker) {
		t.Fatalf("counter = %d, want %d (lost updates)", got, workers*perWorker)
	}
	if v.Version() != uint64(workers*perWorker) {
		t.Fatalf("value version = %d, want %d", v.Version(), workers*perWorker)
	}
}
