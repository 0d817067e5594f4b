package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/value"
)

func TestGetBatch(t *testing.T) {
	s := openMem(t)
	for i := 0; i < 500; i++ {
		s.Put(0, []byte(fmt.Sprintf("k%03d", i)), []value.ColPut{
			{Col: 0, Data: []byte(fmt.Sprintf("a%d", i))},
			{Col: 1, Data: []byte(fmt.Sprintf("b%d", i))},
		})
	}
	keys := [][]byte{
		[]byte("k010"), []byte("missing"), []byte("k499"), []byte("k000"), []byte("k010"),
	}
	out, found := s.GetBatch(keys, []int{1})
	wantFound := []bool{true, false, true, true, true}
	wantCol := []string{"b10", "", "b499", "b0", "b10"}
	for i := range keys {
		if found[i] != wantFound[i] {
			t.Fatalf("key %q found=%v want %v", keys[i], found[i], wantFound[i])
		}
		if found[i] && !bytes.Equal(out[i][0], []byte(wantCol[i])) {
			t.Fatalf("key %q col = %q want %q", keys[i], out[i][0], wantCol[i])
		}
	}
}

func TestGetBatchAllColumns(t *testing.T) {
	s := openMem(t)
	s.Put(0, []byte("k"), []value.ColPut{{Col: 0, Data: []byte("x")}, {Col: 2, Data: []byte("z")}})
	out, found := s.GetBatch([][]byte{[]byte("k")}, nil)
	if !found[0] || len(out[0]) != 3 {
		t.Fatalf("batch all-cols: %v %v", out, found)
	}
	if string(out[0][0]) != "x" || out[0][1] != nil || string(out[0][2]) != "z" {
		t.Fatalf("columns wrong: %q", out[0])
	}
}

// TestTreeCountersReadNonZero drives the tree counters that read 0 on every
// benchmark workload — splits, local retries, and the batched get's
// fallbacks to Get — above zero through Store.Stats(), so that a 0 there is
// known to mean none and not unwired. Sessions read batches of keys that are
// never removed while other sessions fill and drain the stretches between
// them; every such key must come back with its own value.
func TestTreeCountersReadNonZero(t *testing.T) {
	s, err := Open(Config{Workers: 2, MaintainEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	const space = 2000
	keys := make([][]byte, space) // made once: the loops below should spend their time in the tree
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("ctr%05d", i))
	}
	stable := func(i int) bool { return i%4 == 0 }
	for i := 0; i < space; i += 4 {
		s.PutSimple(0, keys[i], keys[i])
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := s.Session(w)
			defer sess.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			for !stop.Load() {
				lo := rng.Intn(space - 40)
				for i := lo; i < lo+40; i++ {
					if !stable(i) {
						sess.PutSimple(keys[i], keys[i])
					}
				}
				for i := lo; i < lo+40; i++ {
					if !stable(i) {
						sess.Remove(keys[i])
					}
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sess := s.Session(r)
			defer sess.Close()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			batch := make([][]byte, 40)
			for !stop.Load() {
				for j := range batch {
					batch[j] = keys[rng.Intn(space/4)*4]
				}
				vals, found := sess.GetBatchInto(batch)
				for j, k := range batch {
					if !found[j] || !bytes.Equal(vals[j].Col(0), k) {
						t.Errorf("key %q: found=%v", k, found[j])
						return
					}
				}
				// A lone get as well: its retries are the LocalRetries.
				if v, ok := sess.GetValue(batch[0]); !ok || !bytes.Equal(v.Col(0), batch[0]) {
					t.Errorf("key %q: lone get found=%v", batch[0], ok)
					return
				}
			}
		}(r)
	}
	// On one core a local retry needs a goroutine preempted inside a window
	// well under a microsecond wide; that is the scheduler's doing, not the
	// tree's, and can take many seconds. A fallback's window is a whole wave.
	driven := func(st core.StatsSnapshot) bool {
		return st.Splits > 0 && st.BatchFallbacks > 0 && (st.LocalRetries > 0 || runtime.GOMAXPROCS(0) == 1)
	}
	for deadline := time.Now().Add(30 * time.Second); !t.Failed() && !driven(s.Stats()) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if st := s.Stats(); !driven(st) {
		t.Fatalf("a counter still reads 0 under contention: %+v", st)
	}
}
