package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/value"
)

// randomKey generators exercising the distributions the tree must handle:
// short binary keys, decimal keys, shared-prefix keys, and long binary keys
// spanning many trie layers.
func keyGenerators(rng *rand.Rand) []func() []byte {
	return []func() []byte{
		func() []byte { // short, dense binary (stresses slice groups)
			n := rng.Intn(4)
			k := make([]byte, n)
			for i := range k {
				k[i] = byte(rng.Intn(3))
			}
			return k
		},
		func() []byte { // 1-to-10-byte decimal (the paper's main workload)
			return []byte(fmt.Sprintf("%d", rng.Int63n(1<<31)))
		},
		func() []byte { // shared 16-byte prefix + varying tail
			return []byte(fmt.Sprintf("comm-prefix-0016%06d", rng.Intn(3000)))
		},
		func() []byte { // long binary keys across layers
			n := 8 + rng.Intn(40)
			k := make([]byte, n)
			for i := range k {
				k[i] = byte(rng.Intn(5) * 50)
			}
			return k
		},
	}
}

// TestModelRandomOps runs randomized put/get/remove/scan against a map and
// sorted-slice reference model, across several seeds and key distributions.
func TestModelRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			gens := keyGenerators(rng)
			tr := New()
			model := map[string]string{}
			const ops = 8000
			for i := 0; i < ops; i++ {
				gen := gens[rng.Intn(len(gens))]
				k := gen()
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4: // put
					v := fmt.Sprintf("v%d", i)
					_, replaced := tr.Put(k, value.New([]byte(v)))
					_, existed := model[string(k)]
					if replaced != existed {
						t.Fatalf("op %d: Put(%q) replaced=%v, model existed=%v", i, k, replaced, existed)
					}
					model[string(k)] = v
				case 5, 6, 7: // get
					v, ok := tr.Get(k)
					want, wantOK := model[string(k)]
					if ok != wantOK || (ok && string(v.Bytes()) != want) {
						t.Fatalf("op %d: Get(%q) = %v,%v want %q,%v", i, k, v, ok, want, wantOK)
					}
				case 8: // remove
					old, ok := tr.Remove(k)
					want, wantOK := model[string(k)]
					if ok != wantOK || (ok && string(old.Bytes()) != want) {
						t.Fatalf("op %d: Remove(%q) = %v,%v want %q,%v", i, k, old, ok, want, wantOK)
					}
					delete(model, string(k))
				case 9: // occasional maintenance
					tr.Maintain()
				}
				if tr.Len() != len(model) {
					t.Fatalf("op %d: Len=%d model=%d", i, tr.Len(), len(model))
				}
			}
			checkFullScan(t, tr, model)
			checkRangeQueries(t, rng, tr, model)

			// Drain the tree and verify emptiness.
			for k := range model {
				if _, ok := tr.Remove([]byte(k)); !ok {
					t.Fatalf("drain: Remove(%q) failed", k)
				}
			}
			tr.Maintain()
			if tr.Len() != 0 {
				t.Fatalf("Len = %d after drain", tr.Len())
			}
			checkFullScan(t, tr, map[string]string{})
		})
	}
}

func sortedKeys(model map[string]string) []string {
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func checkFullScan(t *testing.T, tr *Tree, model map[string]string) {
	t.Helper()
	want := sortedKeys(model)
	var got []string
	tr.Scan(nil, func(k []byte, v *value.Value) bool {
		got = append(got, string(k))
		if model[string(k)] != string(v.Bytes()) {
			t.Fatalf("scan value mismatch for %q: %q vs %q", k, v.Bytes(), model[string(k)])
		}
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("scan returned %d keys, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("scan order mismatch at %d: %q vs %q", i, got[i], want[i])
		}
	}
}

func checkRangeQueries(t *testing.T, rng *rand.Rand, tr *Tree, model map[string]string) {
	t.Helper()
	keys := sortedKeys(model)
	gens := keyGenerators(rng)
	for trial := 0; trial < 30; trial++ {
		var start []byte
		if trial%2 == 0 && len(keys) > 0 {
			start = []byte(keys[rng.Intn(len(keys))])
		} else {
			start = gens[rng.Intn(len(gens))]()
		}
		limit := 1 + rng.Intn(20)
		got := getRange(tr, start, limit)
		// Reference: first `limit` model keys >= start.
		idx := sort.SearchStrings(keys, string(start))
		want := keys[idx:]
		if len(want) > limit {
			want = want[:limit]
		}
		if len(got) != len(want) {
			t.Fatalf("getRange(%q,%d) returned %d pairs, want %d", start, limit, len(got), len(want))
		}
		for i := range got {
			if string(got[i].Key) != want[i] {
				t.Fatalf("getRange(%q,%d)[%d] = %q, want %q", start, limit, i, got[i].Key, want[i])
			}
			if !bytes.Equal(got[i].Value.Bytes(), []byte(model[want[i]])) {
				t.Fatalf("getRange value mismatch for %q", want[i])
			}
		}
	}
}

// TestModelDecimalHeavy mirrors the paper's put benchmark: many decimal keys
// with ~10% collisions (updates), then full verification.
func TestModelDecimalHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tr := New()
	model := map[string]string{}
	const n = 20000
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("%d", rng.Int63n(60000))
		v := fmt.Sprintf("v%d", i)
		tr.Put([]byte(k), value.New([]byte(v)))
		model[k] = v
	}
	if tr.Len() != len(model) {
		t.Fatalf("Len=%d model=%d", tr.Len(), len(model))
	}
	for k, v := range model {
		got, ok := tr.Get([]byte(k))
		if !ok || string(got.Bytes()) != v {
			t.Fatalf("Get(%q) = %v,%v want %q", k, got, ok, v)
		}
	}
	checkFullScan(t, tr, model)
}
