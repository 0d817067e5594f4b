package seqtree

import (
	"testing"

	"repro/internal/baseline/conformance"
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

// answers is a Store over Put's replaced flag; TestBasic checks the old
// value Put also returns.
type answers struct{ *Tree }

func (t answers) Put(key []byte, v *value.Value) bool {
	_, replaced := t.Tree.Put(key, v)
	return replaced
}

// TestModel runs the one-goroutine half of the suite: seqtree is not safe
// for concurrent use.
func TestModel(t *testing.T) {
	conformance.Model(t, func() conformance.Store { return answers{New()} })
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
