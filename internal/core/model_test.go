package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/model"
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

// modelClock draws the versions core tests give the model: the tree stores
// what it is given, so any rising sequence does.
var modelClock atomic.Uint64

// set records v as k's one column in m.
func set(m *model.Model, k, v string) {
	m.Put(k, modelClock.Add(1), 0, model.ColPut{Data: []byte(v)})
}

// valueOf is k's one column in m.
func valueOf(m *model.Model, k string) (string, bool) {
	st, ok := m.Get(k, 0)
	if !ok {
		return "", false
	}
	return string(st.Cols[0]), true
}

// checkTree holds a full scan of tr to ms, models of disjoint key sets: the
// scan ascends strictly, and each key it returns is in one of them with the
// value it carries, and it returns as many keys as they hold.
func checkTree(t *testing.T, tr *Tree, ms ...*model.Model) {
	t.Helper()
	var prev []byte
	n, want := 0, 0
	for _, m := range ms {
		want += m.Len()
	}
	tr.Scan(nil, func(k []byte, v *value.Value) bool {
		if n > 0 && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("scan returned %q after %q", k, prev)
		}
		prev = append(prev[:0], k...)
		n++
		for _, m := range ms {
			if w, ok := valueOf(m, string(k)); ok {
				if w != string(v.Col(0)) {
					t.Fatalf("scan value mismatch for %q: %q vs %q", k, v.Col(0), w)
				}
				return true
			}
		}
		t.Fatalf("scan returned %q, which no model holds", k)
		return false
	})
	if n != want {
		t.Fatalf("scan returned %d keys, want %d", n, want)
	}
}

// checkScan compares the n keys from start that ScanNInto and getRange
// return, and their values, with m's Range.
func checkScan(t *testing.T, tr *Tree, m *model.Model, start string, n int) {
	t.Helper()
	var want []string
	for _, p := range m.Range(start, n, 0) {
		want = append(want, p.Key+"="+string(p.Cols[0]))
	}
	var got, gotRange []string
	tr.ScanNInto([]byte(start), n, nil, func(k []byte, v *value.Value) bool {
		got = append(got, string(k)+"="+string(v.Col(0)))
		return len(got) < n
	})
	for _, kv := range getRange(tr, []byte(start), n) {
		gotRange = append(gotRange, string(kv.Key)+"="+string(kv.Value.Col(0)))
	}
	if fmt.Sprintf("%q", got) != fmt.Sprintf("%q", want) || fmt.Sprintf("%q", gotRange) != fmt.Sprintf("%q", want) {
		t.Fatalf("scan from %q for %d:\n     got %q\ngetRange %q\n    want %q", start, n, got, gotRange, want)
	}
}

// TestModelRandomOps runs randomized put/get/remove/scan against the
// reference model, across several seeds and key distributions.
func TestModelRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			gens := keyGenerators(rng)
			tr := New()
			m := model.New()
			const ops = 8000
			for i := 0; i < ops; i++ {
				gen := gens[rng.Intn(len(gens))]
				k := gen()
				want, wantOK := valueOf(m, string(k))
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4: // put
					v := fmt.Sprintf("v%d", i)
					_, replaced := tr.Put(k, value.New([]byte(v)))
					if replaced != wantOK {
						t.Fatalf("op %d: Put(%q) replaced=%v, model existed=%v", i, k, replaced, wantOK)
					}
					set(m, string(k), v)
				case 5, 6, 7: // get
					v, ok := tr.Get(k)
					if ok != wantOK || (ok && string(v.Col(0)) != want) {
						t.Fatalf("op %d: Get(%q) = %v,%v want %q,%v", i, k, v, ok, want, wantOK)
					}
				case 8: // remove
					old, ok := tr.Remove(k)
					if ok != wantOK || (ok && string(old.Col(0)) != want) {
						t.Fatalf("op %d: Remove(%q) = %v,%v want %q,%v", i, k, old, ok, want, wantOK)
					}
					m.Remove(string(k), 0)
				case 9: // occasional maintenance
					tr.Maintain()
				}
				if tr.Len() != m.Len() {
					t.Fatalf("op %d: Len=%d model=%d", i, tr.Len(), m.Len())
				}
			}
			checkTree(t, tr, m)
			// Range queries from present keys and from generated ones.
			keys := m.Range("", m.Len(), 0)
			for trial := 0; trial < 30; trial++ {
				var start string
				if trial%2 == 0 && len(keys) > 0 {
					start = keys[rng.Intn(len(keys))].Key
				} else {
					start = string(gens[rng.Intn(len(gens))]())
				}
				checkScan(t, tr, m, start, 1+rng.Intn(20))
			}

			// Drain the tree, in no key order, and verify emptiness.
			rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			for _, p := range keys {
				if _, ok := tr.Remove([]byte(p.Key)); !ok {
					t.Fatalf("drain: Remove(%q) failed", p.Key)
				}
				m.Remove(p.Key, 0)
			}
			tr.Maintain()
			if tr.Len() != 0 {
				t.Fatalf("Len = %d after drain", tr.Len())
			}
			checkTree(t, tr, m)
		})
	}
}

// TestModelDecimalHeavy mirrors the paper's put benchmark: many decimal keys
// with ~10% collisions (updates), then full verification.
func TestModelDecimalHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tr := New()
	m := model.New()
	const n = 20000
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("%d", rng.Int63n(60000))
		v := fmt.Sprintf("v%d", i)
		tr.Put([]byte(k), value.New([]byte(v)))
		set(m, k, v)
	}
	if tr.Len() != m.Len() {
		t.Fatalf("Len=%d model=%d", tr.Len(), m.Len())
	}
	for _, p := range m.Range("", m.Len(), 0) {
		got, ok := tr.Get([]byte(p.Key))
		if !ok || string(got.Col(0)) != string(p.Cols[0]) {
			t.Fatalf("Get(%q) = %v,%v want %q", p.Key, got, ok, p.Cols[0])
		}
	}
	checkTree(t, tr, m)
}
