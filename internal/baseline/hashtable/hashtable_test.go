package hashtable

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/value"
)

func TestModel(t *testing.T) {
	tb := New(4096)
	model := map[string]string{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("%d", rng.Intn(2000))
		switch rng.Intn(3) {
		case 0, 1:
			v := fmt.Sprintf("v%d", i)
			replaced := tb.Put([]byte(k), value.New([]byte(v)))
			if _, had := model[k]; had != replaced {
				t.Fatalf("put %q replaced=%v want %v", k, replaced, had)
			}
			model[k] = v
		case 2:
			v, ok := tb.Get([]byte(k))
			want, wantOK := model[k]
			if ok != wantOK || (ok && string(v.Bytes()) != want) {
				t.Fatalf("get %q mismatch", k)
			}
		}
		if tb.Len() != len(model) {
			t.Fatalf("len %d vs %d", tb.Len(), len(model))
		}
	}
}

// avgProbe reports the mean chain position of the entries (the paper's
// "1.1 entries inspected per lookup" statistic).
func avgProbe(t *Table) float64 {
	entries, probes := 0, 0
	for i := range t.buckets {
		pos := 0
		for e := t.buckets[i].Load(); e != nil; e = e.next {
			pos++
			entries++
			probes += pos
		}
	}
	if entries == 0 {
		return 0
	}
	return float64(probes) / float64(entries)
}

func TestLowOccupancyProbes(t *testing.T) {
	// At the paper's ~30% occupancy, lookups inspect ~1.1 entries.
	const n = 10000
	tb := New(n * 3)
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%08d", i))
		tb.Put(k, value.New(k))
	}
	if p := avgProbe(tb); p > 1.3 {
		t.Fatalf("average probe length %.3f, expected ~1.1", p)
	}
}

func TestConcurrent(t *testing.T) {
	tb := New(1 << 16)
	var wg sync.WaitGroup
	const workers, per = 4, 5000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := []byte(fmt.Sprintf("w%d-%05d", w, i))
				tb.Put(k, value.New(k))
			}
		}(w)
	}
	wg.Wait()
	if tb.Len() != workers*per {
		t.Fatalf("len %d want %d", tb.Len(), workers*per)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < per; i++ {
			k := []byte(fmt.Sprintf("w%d-%05d", w, i))
			if v, ok := tb.Get(k); !ok || string(v.Bytes()) != string(k) {
				t.Fatalf("lost %q", k)
			}
		}
	}
}
