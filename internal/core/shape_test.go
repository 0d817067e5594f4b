package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/value"
)

func TestShapeCountsMatchLen(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20000; i++ {
		k := []byte(fmt.Sprintf("%d", rng.Int63n(1<<31)))
		tr.Put(k, value.New(k))
	}
	s := checkInvariants(t, tr)
	if s.TotalKeys() != tr.Len() {
		t.Fatalf("shape counts %d keys, Len says %d", s.TotalKeys(), tr.Len())
	}
	if s.Layers[0].Trees != 1 {
		t.Fatalf("layer 0 has %d trees", s.Layers[0].Trees)
	}
	if len(s.Layers) < 2 || s.Layers[1].Trees == 0 {
		t.Fatal("decimal keys should create layer-1 trees")
	}
}

// TestShapeDecimalWorkload checks §6.2's structural observation at laptop
// scale: the 1-to-10-byte decimal put workload pushes a substantial
// fraction of keys into layer-1 trees, but those trees stay tiny (the paper
// measured 33% of keys and 2.3 keys per layer-1 tree at 140M keys).
func TestShapeDecimalWorkload(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(9))
	const n = 60000
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("%d", rng.Int63n(1<<31)))
		tr.Put(k, value.New(k))
	}
	s := checkInvariants(t, tr)
	frac := s.KeysInLayer(1)
	if frac <= 0 {
		t.Fatal("no keys in layer 1")
	}
	avg := s.AvgKeysPerTree(1)
	if avg <= 1 || avg > 11 {
		t.Fatalf("avg keys per layer-1 tree = %.2f, expected small (paper: 2.3)", avg)
	}
	t.Logf("layer-1 key fraction %.2f (paper 0.33 at 140M), avg keys/layer-1 tree %.2f (paper 2.3)", frac, avg)
	// Layer-1 trees of a few keys each must be single border nodes.
	if s.Layers[1].InteriorNodes != 0 && avg < 5 {
		t.Fatalf("tiny layer-1 trees grew interiors: %+v", s.Layers[1])
	}
}

// TestShapeBorderFill checks node occupancy: B+-tree nodes built by random
// inserts average ~75% full (§6.2); sequential inserts approach 100% thanks
// to the §4.3 optimization. Keys are exactly 8 bytes so everything stays in
// layer 0 and the comparison isolates split behavior.
func TestShapeBorderFill(t *testing.T) {
	random := New()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 30000; i++ {
		k := []byte(fmt.Sprintf("%08d", rng.Int63n(1e8)))
		random.Put(k, value.New(k))
	}
	fillRnd := checkInvariants(t, random).BorderFill()
	if fillRnd < 0.55 || fillRnd > 0.95 {
		t.Fatalf("random-insert border fill %.2f, expected ~0.75", fillRnd)
	}

	seq := New()
	for i := 0; i < 30000; i++ {
		k := []byte(fmt.Sprintf("%08d", i))
		seq.Put(k, value.New(k))
	}
	fillSeq := checkInvariants(t, seq).BorderFill()
	if fillSeq <= fillRnd {
		t.Fatalf("sequential fill %.2f not better than random %.2f (§4.3 optimization)", fillSeq, fillRnd)
	}
	if fillSeq < 0.9 {
		t.Fatalf("sequential fill %.2f, expected near-full nodes", fillSeq)
	}
	t.Logf("border fill: random %.2f (paper ~0.75), sequential %.2f", fillRnd, fillSeq)
}

func TestShapeEmptyTree(t *testing.T) {
	tr := New()
	s := checkInvariants(t, tr)
	if s.TotalKeys() != 0 || len(s.Layers) != 1 || s.Layers[0].BorderNodes != 1 {
		t.Fatalf("empty tree shape wrong: %+v", s)
	}
}
