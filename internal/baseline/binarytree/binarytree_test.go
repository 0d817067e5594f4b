package binarytree

import (
	"math/rand"
	"testing"

	"repro/internal/baseline/conformance"
	"repro/internal/value"
)

func variants() map[string]func() conformance.Store {
	return map[string]func() conformance.Store{
		"plain":        func() conformance.Store { return New() },
		"intcmp":       func() conformance.Store { return New(WithIntCmp()) },
		"arena":        func() conformance.Store { return New(WithArena()) },
		"intcmp+arena": func() conformance.Store { return New(WithIntCmp(), WithArena()) },
	}
}

func TestModel(t *testing.T) {
	for name, mk := range variants() {
		t.Run(name, func(t *testing.T) { conformance.Model(t, mk) })
	}
}

func TestConcurrentInserts(t *testing.T) {
	for name, mk := range variants() {
		t.Run(name, func(t *testing.T) { conformance.Concurrent(t, mk) })
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
		if oka != okb || string(va.Col(0)) != string(vb.Col(0)) {
			t.Fatalf("mismatch for %q", k)
		}
	}
	if a.Len() != b.Len() {
		t.Fatalf("lens differ: %d vs %d", a.Len(), b.Len())
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
		if !ok || v.Col(0)[0] != byte(i) {
			t.Fatalf("key %q wrong", k)
		}
	}
}
