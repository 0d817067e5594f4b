package seqtree

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/value"
)

func TestBasic(t *testing.T) {
	tr := New()
	tr.Put([]byte("hello"), value.New([]byte("world")))
	v, ok := tr.Get([]byte("hello"))
	if !ok || string(v.Col(0)) != "world" {
		t.Fatal("basic get failed")
	}
	if _, ok := tr.Get([]byte("hell")); ok {
		t.Fatal("phantom")
	}
	old, replaced := tr.Put([]byte("hello"), value.New([]byte("there")))
	if !replaced || string(old.Col(0)) != "world" {
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
	if !ok || string(v.Col(0)) != "1" {
		t.Fatal("layer get AB failed")
	}
	if _, ok := tr.Get([]byte("01234567")); ok {
		t.Fatal("phantom prefix")
	}
	if v, ok := tr.Get([]byte("01234567XY")); !ok || string(v.Col(0)) != "2" {
		t.Fatal("layer get XY failed")
	}
	tr.Put([]byte("01234567CD"), value.New([]byte("3")))
	if _, ok := tr.Get([]byte("01234567CD")); !ok {
		t.Fatal("third key in the layer lost")
	}
	if tr.Len() != 3 {
		t.Fatalf("len %d", tr.Len())
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
				switch rng.Intn(4) {
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
					if ok != wantOK || (ok && string(v.Col(0)) != want) {
						t.Fatalf("op %d: get %q mismatch", i, k)
					}
				}
				if tr.Len() != len(model) {
					t.Fatalf("op %d: len %d vs %d", i, tr.Len(), len(model))
				}
			}
			for k, v := range model {
				if got, ok := tr.Get([]byte(k)); !ok || string(got.Col(0)) != v {
					t.Fatalf("final: %q = %v,%v want %q", k, got, ok, v)
				}
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
				n = old.Col(0)[0]
			}
			return value.New([]byte{n + 1})
		})
	}
	v, _ := tr.Get([]byte("ctr"))
	if v.Col(0)[0] != 10 {
		t.Fatalf("counter %d", v.Col(0)[0])
	}
}
