package seqtree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/value"
)

func TestBasic(t *testing.T) {
	tr := New()
	tr.Put([]byte("hello"), value.New([]byte("world")))
	v, ok := tr.Get([]byte("hello"))
	if !ok || string(v.Bytes()) != "world" {
		t.Fatal("basic get failed")
	}
	if _, ok := tr.Get([]byte("hell")); ok {
		t.Fatal("phantom")
	}
	old, replaced := tr.Put([]byte("hello"), value.New([]byte("there")))
	if !replaced || string(old.Bytes()) != "world" {
		t.Fatal("replace failed")
	}
	if tr.Len() != 1 {
		t.Fatalf("len %d", tr.Len())
	}
}

func TestLayers(t *testing.T) {
	tr := New()
	tr.Put([]byte("01234567AB"), value.New([]byte("1")))
	tr.Put([]byte("01234567XY"), value.New([]byte("2")))
	v, ok := tr.Get([]byte("01234567AB"))
	if !ok || string(v.Bytes()) != "1" {
		t.Fatal("layer get AB failed")
	}
	if _, ok := tr.Get([]byte("01234567")); ok {
		t.Fatal("phantom prefix")
	}
	if old, ok := tr.Remove([]byte("01234567XY")); !ok || string(old.Bytes()) != "2" {
		t.Fatal("layer remove failed")
	}
	if _, ok := tr.Get([]byte("01234567AB")); !ok {
		t.Fatal("AB lost after removing XY")
	}
	// Removing the last key collapses the layer immediately (sequential).
	tr.Remove([]byte("01234567AB"))
	if tr.Len() != 0 {
		t.Fatalf("len %d", tr.Len())
	}
	tr.Put([]byte("01234567CD"), value.New([]byte("3")))
	if _, ok := tr.Get([]byte("01234567CD")); !ok {
		t.Fatal("reinsert after collapse failed")
	}
}

func TestModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			tr := New()
			model := map[string]string{}
			rng := rand.New(rand.NewSource(seed))
			gen := func() string {
				switch rng.Intn(3) {
				case 0:
					return fmt.Sprintf("%d", rng.Intn(4000))
				case 1:
					return fmt.Sprintf("shared-prefix-%05d", rng.Intn(2000))
				default:
					n := rng.Intn(4)
					b := make([]byte, n)
					for i := range b {
						b[i] = byte(rng.Intn(3))
					}
					return string(b)
				}
			}
			for i := 0; i < 12000; i++ {
				k := gen()
				switch rng.Intn(5) {
				case 0, 1, 2:
					v := fmt.Sprintf("v%d", i)
					_, replaced := tr.Put([]byte(k), value.New([]byte(v)))
					if _, had := model[k]; had != replaced {
						t.Fatalf("op %d: put %q replaced=%v want %v", i, k, replaced, had)
					}
					model[k] = v
				case 3:
					v, ok := tr.Get([]byte(k))
					want, wantOK := model[k]
					if ok != wantOK || (ok && string(v.Bytes()) != want) {
						t.Fatalf("op %d: get %q mismatch", i, k)
					}
				case 4:
					_, ok := tr.Remove([]byte(k))
					if _, had := model[k]; had != ok {
						t.Fatalf("op %d: remove %q = %v want %v", i, k, ok, had)
					}
					delete(model, k)
				}
				if tr.Len() != len(model) {
					t.Fatalf("op %d: len %d vs %d", i, tr.Len(), len(model))
				}
			}
			// Full scan must match the sorted model.
			var want []string
			for k := range model {
				want = append(want, k)
			}
			sort.Strings(want)
			var got []string
			tr.Scan(nil, func(k []byte, v *value.Value) bool {
				got = append(got, string(k))
				if model[string(k)] != string(v.Bytes()) {
					t.Fatalf("scan value mismatch for %q", k)
				}
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("scan %d keys, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("scan order at %d: %q vs %q", i, got[i], want[i])
				}
			}
			// Drain.
			for k := range model {
				if _, ok := tr.Remove([]byte(k)); !ok {
					t.Fatalf("drain remove %q failed", k)
				}
			}
			if tr.Len() != 0 {
				t.Fatalf("len %d after drain", tr.Len())
			}
		})
	}
}

func TestUpdateRMW(t *testing.T) {
	tr := New()
	for i := 0; i < 10; i++ {
		tr.Update([]byte("ctr"), func(old *value.Value) *value.Value {
			var n byte
			if old != nil {
				n = old.Bytes()[0]
			}
			return value.New([]byte{n + 1})
		})
	}
	v, _ := tr.Get([]byte("ctr"))
	if v.Bytes()[0] != 10 {
		t.Fatalf("counter %d", v.Bytes()[0])
	}
}
