package binarytree

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/value"
)

func variants() map[string]func() *Tree {
	return map[string]func() *Tree{
		"plain":        func() *Tree { return New() },
		"intcmp":       func() *Tree { return New(WithIntCmp()) },
		"arena":        func() *Tree { return New(WithArena()) },
		"intcmp+arena": func() *Tree { return New(WithIntCmp(), WithArena()) },
	}
}

func TestModel(t *testing.T) {
	for name, mk := range variants() {
		t.Run(name, func(t *testing.T) {
			tr := mk()
			model := map[string]string{}
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 5000; i++ {
				k := fmt.Sprintf("%d", rng.Intn(2000))
				switch rng.Intn(3) {
				case 0, 1:
					v := fmt.Sprintf("v%d", i)
					replaced := tr.Put([]byte(k), value.New([]byte(v)))
					if _, had := model[k]; had != replaced {
						t.Fatalf("put %q replaced=%v, want %v", k, replaced, had)
					}
					model[k] = v
				case 2:
					v, ok := tr.Get([]byte(k))
					want, wantOK := model[k]
					if ok != wantOK || (ok && string(v.Bytes()) != want) {
						t.Fatalf("get %q = %v,%v want %q,%v", k, v, ok, want, wantOK)
					}
				}
				if tr.Len() != len(model) {
					t.Fatalf("len %d vs %d", tr.Len(), len(model))
				}
			}
		})
	}
}

// TestIntCmpMatchesBytes: both comparison modes must produce identical
// results for mixed-length binary keys.
func TestIntCmpMatchesBytes(t *testing.T) {
	a, b := New(), New(WithIntCmp())
	rng := rand.New(rand.NewSource(2))
	var keys [][]byte
	for i := 0; i < 2000; i++ {
		k := make([]byte, rng.Intn(20))
		rng.Read(k)
		keys = append(keys, k)
		a.Put(k, value.New(k))
		b.Put(k, value.New(k))
	}
	for _, k := range keys {
		va, oka := a.Get(k)
		vb, okb := b.Get(k)
		if oka != okb || string(va.Bytes()) != string(vb.Bytes()) {
			t.Fatalf("mismatch for %q", k)
		}
	}
	if a.Len() != b.Len() {
		t.Fatalf("lens differ: %d vs %d", a.Len(), b.Len())
	}
}

func TestConcurrentInserts(t *testing.T) {
	for name, mk := range variants() {
		t.Run(name, func(t *testing.T) {
			tr := mk()
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
				t.Fatalf("len %d, want %d", tr.Len(), workers*per)
			}
			for w := 0; w < workers; w++ {
				for i := 0; i < per; i++ {
					k := []byte(fmt.Sprintf("w%d-%05d", w, i))
					if v, ok := tr.Get(k); !ok || string(v.Bytes()) != string(k) {
						t.Fatalf("lost %q", k)
					}
				}
			}
		})
	}
}

func TestEmptyAndBinaryKeys(t *testing.T) {
	tr := New(WithIntCmp())
	keys := [][]byte{{}, {0}, {0, 0}, {0, 1}, {255}, []byte("ABCDEFG"), []byte("ABCDEFG\x00")}
	for i, k := range keys {
		tr.Put(k, value.New([]byte{byte(i)}))
	}
	for i, k := range keys {
		v, ok := tr.Get(k)
		if !ok || v.Bytes()[0] != byte(i) {
			t.Fatalf("key %q wrong", k)
		}
	}
}
