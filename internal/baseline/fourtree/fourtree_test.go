package fourtree

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/value"
)

func TestModel(t *testing.T) {
	tr := New()
	model := map[string]string{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8000; i++ {
		k := fmt.Sprintf("%d", rng.Intn(3000))
		switch rng.Intn(3) {
		case 0, 1:
			v := fmt.Sprintf("v%d", i)
			replaced := tr.Put([]byte(k), value.New([]byte(v)))
			if _, had := model[k]; had != replaced {
				t.Fatalf("put %q replaced=%v want %v", k, replaced, had)
			}
			model[k] = v
		case 2:
			v, ok := tr.Get([]byte(k))
			want, wantOK := model[k]
			if ok != wantOK || (ok && string(v.Bytes()) != want) {
				t.Fatalf("get %q mismatch", k)
			}
		}
		if tr.Len() != len(model) {
			t.Fatalf("len %d vs model %d", tr.Len(), len(model))
		}
	}
}

func TestInternalNodesFull(t *testing.T) {
	tr := New()
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("%04d", i))
		tr.Put(k, value.New(k))
	}
	// Walk: every internal node must have exactly 3 keys and 4 children.
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			if len(n.keys) > 3 {
				t.Fatalf("leaf with %d keys", len(n.keys))
			}
			return
		}
		if len(n.keys) != 3 {
			t.Fatalf("internal node with %d keys", len(n.keys))
		}
		for i := 0; i < fanout; i++ {
			c := n.kids[i].Load()
			if c == nil {
				t.Fatal("nil child in internal node")
			}
			walk(c)
		}
	}
	walk(tr.root.Load())
}

func TestConcurrentInserts(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	const workers, per = 4, 3000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := []byte(fmt.Sprintf("w%d-%05d", w, i))
				tr.Put(k, value.New(k))
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != workers*per {
		t.Fatalf("len %d want %d", tr.Len(), workers*per)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < per; i++ {
			k := []byte(fmt.Sprintf("w%d-%05d", w, i))
			if v, ok := tr.Get(k); !ok || string(v.Bytes()) != string(k) {
				t.Fatalf("lost %q", k)
			}
		}
	}
}

func TestConcurrentMixed(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 10000; i++ {
				k := []byte(fmt.Sprintf("hot%03d", rng.Intn(200)))
				if rng.Intn(2) == 0 {
					tr.Put(k, value.New(k))
				} else if v, ok := tr.Get(k); ok && string(v.Bytes()) != string(k) {
					panic("wrong value")
				}
			}
		}(int64(w))
	}
	wg.Wait()
}
