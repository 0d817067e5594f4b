package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/value"
)

// putBatchSimple applies one single-column put per key through PutBatchInto.
func putBatchSimple(tr *Tree, sc *BatchScratch, keys [][]byte) {
	tr.PutBatchInto(keys, sc, func(i int, old *value.Value) *value.Value {
		return value.Apply(old, []value.ColPut{{Col: 0, Data: keys[i]}})
	})
}

// TestPutBatchMatchesPut drives a random mixed workload through the hinted
// batch path and checks the tree against a reference tree built with
// individual puts. The key mix exercises inserts, replacements, suffix
// conflicts, shared 8-byte prefixes (layer descents), full borders (splits,
// under the hints of the batch that caused them) and duplicate keys. Odd
// rounds go through BatchInto with lookups among the puts: a lookup must
// report what the reference held before the round.
func TestPutBatchMatchesPut(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	genKey := func() []byte {
		switch rng.Intn(4) {
		case 0: // short keys, all in one slice group
			return []byte(fmt.Sprintf("k%d", rng.Intn(2000)))
		case 1: // long keys sharing an 8-byte prefix: forces trie layers
			return []byte(fmt.Sprintf("prefix00-%06d", rng.Intn(2000)))
		case 2: // two nested layers
			return []byte(fmt.Sprintf("prefix00deeper00%06d", rng.Intn(500)))
		default: // 9..16 byte keys with varied prefixes: suffix slots
			return []byte(fmt.Sprintf("p%07d-%04d", rng.Intn(50), rng.Intn(500)))
		}
	}
	batched, reference := New(), New()
	var sc BatchScratch
	const n = 128
	put, vals, found := make([]bool, n), make([]*value.Value, n), make([]bool, n)
	for round := 0; round < 60; round++ {
		batch := make([][]byte, 0, n)
		for i := 0; i < n; i++ {
			batch = append(batch, genKey())
			put[i] = round%2 == 0 || rng.Intn(4) != 0
		}
		if rng.Intn(4) == 0 {
			batch[1], put[0], put[1] = batch[0], true, true // guaranteed duplicate within the batch
		}
		store := func(i int, old *value.Value) *value.Value {
			return value.Apply(old, []value.ColPut{{Col: 0, Data: batch[i]}})
		}
		if round%2 == 0 {
			batched.PutBatchInto(batch, &sc, store)
		} else {
			batched.BatchInto(batch, put, vals, found, &sc, store)
			for i, k := range batch {
				if want, ok := reference.Get(k); !put[i] && (ok != found[i] || ok && string(vals[i].Bytes()) != string(want.Bytes())) {
					t.Fatalf("round %d: lookup of %q found %v (%v), the reference holds %v (%v)", round, k, vals[i], found[i], want, ok)
				}
			}
		}
		for i, k := range batch {
			if put[i] {
				reference.Update(k, func(old *value.Value) *value.Value {
					return value.Apply(old, []value.ColPut{{Col: 0, Data: k}})
				})
			}
		}
	}
	if batched.Len() != reference.Len() {
		t.Fatalf("batched tree has %d keys, reference %d", batched.Len(), reference.Len())
	}
	scanned := 0
	reference.Scan(nil, func(k []byte, want *value.Value) bool {
		got, ok := batched.Get(k)
		if !ok {
			t.Fatalf("batched tree lost key %q", k)
		}
		if string(got.Bytes()) != string(want.Bytes()) {
			t.Fatalf("key %q: %q vs %q", k, got.Bytes(), want.Bytes())
		}
		scanned++
		return true
	})
	if scanned != reference.Len() {
		t.Fatalf("scanned %d keys, want %d", scanned, reference.Len())
	}
	checkInvariants(t, batched)
	if s := batched.Stats(); s.Splits < 100 || s.LayerCreations < 50 {
		t.Fatalf("the batches did not split and layer as they were meant to: %+v", s)
	}
}

// TestPutBatchDuplicateOrder pins that duplicate keys within one batch apply
// in input order: the last request wins and versions increase in request
// order.
func TestPutBatchDuplicateOrder(t *testing.T) {
	tr := New()
	var sc BatchScratch
	key := []byte("dup-key")
	batch := [][]byte{key, []byte("other"), key, key}
	var order []int
	tr.PutBatchInto(batch, &sc, func(i int, old *value.Value) *value.Value {
		if string(batch[i]) == "dup-key" {
			order = append(order, i)
		}
		return value.Apply(old, []value.ColPut{{Col: 0, Data: []byte(fmt.Sprintf("w%d", i))}})
	})
	if len(order) != 3 || order[0] != 0 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("duplicate keys applied in order %v, want [0 2 3]", order)
	}
	v, ok := tr.Get(key)
	if !ok || string(v.Bytes()) != "w3" {
		t.Fatalf("dup-key = %q, want last write w3", v.Bytes())
	}
	if v.Version() != 3 {
		t.Fatalf("dup-key version = %d, want 3 (three sequential applies)", v.Version())
	}
}

// TestPutBatchUpdateSeesOld verifies apply receives the pre-put value for
// replacements and nil for inserts, under single-lock runs.
func TestPutBatchUpdateSeesOld(t *testing.T) {
	tr := New()
	var sc BatchScratch
	seed := [][]byte{[]byte("a1"), []byte("a2"), []byte("a3")}
	putBatchSimple(tr, &sc, seed)
	batch := [][]byte{[]byte("a1"), []byte("b1"), []byte("a3")}
	sawOld := map[string]bool{}
	tr.PutBatchInto(batch, &sc, func(i int, old *value.Value) *value.Value {
		sawOld[string(batch[i])] = old != nil
		return value.Apply(old, []value.ColPut{{Col: 0, Data: []byte("x")}})
	})
	if !sawOld["a1"] || !sawOld["a3"] || sawOld["b1"] {
		t.Fatalf("old-value visibility wrong: %v", sawOld)
	}
}

// TestPutBatchConcurrentWithGetsAndScans races batched writers against
// lock-free readers and scanners; run with -race in CI. Readers check only
// invariants that hold mid-batch: a stable key is always present with one of
// its possible values, and scans never observe torn values.
func TestPutBatchConcurrentWithGetsAndScans(t *testing.T) {
	tr := New()
	var stable [][]byte
	for i := 0; i < 500; i++ {
		k := []byte(fmt.Sprintf("stable%05d", i))
		tr.Put(k, value.New(k))
		stable = append(stable, k)
	}
	const writers = 3
	var writerWG, scanWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var sc BatchScratch
			for r := 0; r < 60; r++ {
				batch := make([][]byte, 64)
				for i := range batch {
					// Mix of churn inserts (incl. layered keys) and stable
					// overwrites that always rewrite the key as its value.
					if i%4 == 0 {
						batch[i] = stable[rng.Intn(len(stable))]
					} else {
						batch[i] = []byte(fmt.Sprintf("churn%02d-%05d", w, rng.Intn(2000)))
					}
				}
				putBatchSimple(tr, &sc, batch)
			}
		}(w)
	}
	scanWG.Add(1)
	go func() {
		defer scanWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := 0
			tr.Scan(nil, func(k []byte, v *value.Value) bool {
				if v == nil {
					t.Error("scan observed nil value")
					return false
				}
				n++
				return n < 2000
			})
		}
	}()
	for round := 0; round < 40; round++ {
		for _, k := range stable {
			v, ok := tr.Get(k)
			if !ok || string(v.Bytes()) != string(k) {
				t.Fatalf("stable key %q lost or torn: %v", k, v)
			}
		}
	}
	writerWG.Wait()
	close(stop)
	scanWG.Wait()
}
