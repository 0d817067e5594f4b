// Package conformance is the one test suite every rung of Figure 8's ladder
// passes: the baselines, the partitioned store and core.Tree answer the same
// keys, checked against internal/model. The factor analysis compares the
// rungs' speeds, which means something only if they compute the same
// answers.
//
// Model drives one goroutine's seeded puts and gets, and an ascending then
// descending load; Concurrent drives disjoint writers held to the union of
// their models, and writers and readers sharing a hot set of self-certifying
// values. Both draw their keys from the families Key draws from. No
// program imports the package.
package conformance

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/value"
)

// Store is what a rung answers: Put reports whether it replaced a value.
type Store interface {
	Get(key []byte) (*value.Value, bool)
	Put(key []byte, v *value.Value) bool
	Len() int
}

// edgeKeys are the keys a rung gets wrong first: the empty key, a lone
// zero and 0xff byte, keys one trailing zero apart, and 8-byte slices with
// and without suffixes that conflict past the slice.
var edgeKeys = []string{"", "\x00", "\x00\x00", "\x00\x01", "\xff", "ABCDEFG", "ABCDEFG\x00",
	"01234567", "01234567AB", "01234567XY", "01234567CD"}

// binary draws n bytes, each one of vals.
func binary(rng *rand.Rand, n int, vals ...byte) []byte {
	k := make([]byte, n)
	for i := range k {
		k[i] = vals[rng.Intn(len(vals))]
	}
	return k
}

// families draw, from the rng they are given, the keys every rung must
// handle.
var families = []func(rng *rand.Rand) []byte{
	func(rng *rand.Rand) []byte { // dense short decimal: most draws overwrite
		return fmt.Appendf(nil, "%d", rng.Intn(3000))
	},
	func(rng *rand.Rand) []byte { // sparse 1-to-10-digit decimal, the paper's put workload
		return fmt.Appendf(nil, "%d", rng.Int63n(1<<31))
	},
	func(rng *rand.Rand) []byte { // a shared 16-byte prefix: longer than 16 B, tied on 16
		return fmt.Appendf(nil, "comm-prefix-0016%06d", rng.Intn(3000))
	},
	func(rng *rand.Rand) []byte { // 9 to 16 bytes sharing one 8-byte lead
		return fmt.Appendf(nil, "samelead%0*d", 1+rng.Intn(8), rng.Intn(3000))
	},
	func(rng *rand.Rand) []byte { // short dense binary: slice groups and keys one zero apart
		return binary(rng, rng.Intn(4), 0, 1, 2)
	},
	func(rng *rand.Rand) []byte { // long binary across many trie layers
		return binary(rng, 8+rng.Intn(40), 0, 50, 100, 150, 200)
	},
	func(rng *rand.Rand) []byte { // the fixed edge keys
		return []byte(edgeKeys[rng.Intn(len(edgeKeys))])
	},
}

// Key draws a key from a family rng picks.
func Key(rng *rand.Rand) []byte { return families[rng.Intn(len(families))](rng) }

// checker holds a store to a model of the keys one goroutine writes.
type checker struct {
	s   Store
	m   *model.Model
	ver uint64
}

func newChecker(s Store) *checker { return &checker{s: s, m: model.New()} }

// note records in the model that k holds v.
func (c *checker) note(k []byte, v string) {
	c.ver++
	c.m.Put(string(k), c.ver, 0, model.ColPut{Data: []byte(v)})
}

// get compares the store's answer for k with the model's.
func (c *checker) get(k []byte) error {
	var got, want []byte
	v, ok := c.s.Get(k)
	if ok {
		got = v.Col(0)
	}
	st, wantOK := c.m.Get(string(k), 0)
	if wantOK {
		want = st.Cols[0]
	}
	if ok != wantOK || !bytes.Equal(got, want) {
		return fmt.Errorf("Get(%q) = %q,%v, want %q,%v", k, got, ok, want, wantOK)
	}
	return nil
}

// step reads k and then, if put, stores v under it, checking that the store
// replaced a value exactly when the model held one.
func (c *checker) step(k []byte, put bool, v string) error {
	if err := c.get(k); err != nil || !put {
		return err
	}
	_, had := c.m.Get(string(k), 0)
	if replaced := c.s.Put(k, value.New([]byte(v))); replaced != had {
		return fmt.Errorf("Put(%q) replaced=%v, model held=%v", k, replaced, had)
	}
	c.note(k, v)
	return nil
}

// sweep reads back every key of cs's models, which hold disjoint keys of
// one store, and checks that the store holds as many keys as they do.
func sweep(t *testing.T, cs ...*checker) {
	t.Helper()
	n := 0
	for _, c := range cs {
		n += c.m.Len()
		for _, p := range c.m.Range("", c.m.Len(), 0) {
			if err := c.get([]byte(p.Key)); err != nil {
				t.Fatalf("sweep: %v", err)
			}
		}
	}
	if got := cs[0].s.Len(); got != n {
		t.Fatalf("sweep: Len = %d, models hold %d", got, n)
	}
}

// Model runs one goroutine's operations on stores mk makes: for each of
// three seeds, reads of keys from families of which two in three then put;
// and an ascending, then a descending load. Len is checked after every
// operation, and every key the model holds at the end.
func Model(t *testing.T, mk func() Store) {
	run := func(name string, n int, op func(i int) ([]byte, bool)) {
		t.Run(name, func(t *testing.T) {
			c := newChecker(mk())
			for i := range n {
				k, put := op(i)
				err := c.step(k, put, fmt.Sprintf("v%d", i))
				if err == nil && c.s.Len() != c.m.Len() {
					err = fmt.Errorf("Len = %d, model holds %d", c.s.Len(), c.m.Len())
				}
				if err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			sweep(t, c)
		})
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		run(fmt.Sprintf("seed%d", seed), 8000, func(int) ([]byte, bool) { return Key(rng), rng.Intn(3) < 2 })
	}
	const n = 1000
	run("ascending-descending", 2*n, func(i int) ([]byte, bool) {
		if i < n {
			return fmt.Appendf(nil, "s%06d", i), true
		}
		return fmt.Appendf(nil, "r%06d", 2*n-1-i), true
	})
}

// workers is how many goroutines Concurrent runs.
const workers = 4

// parallel runs f(0) to f(n-1) on their own goroutines and fails t, from
// t's goroutine, with every error they return.
func parallel(t *testing.T, n int, f func(w int) error) {
	t.Helper()
	errs := make(chan error, n)
	for w := range n {
		go func() { errs <- f(w) }()
	}
	for range n {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
}

// Concurrent runs goroutines on stores mk makes. In "disjoint", each worker
// owns its own keys from families, reads and puts them in random order with
// its own model, and the store is then held to the union of the models. In
// "hot", workers overwrite a shared hot set, and insert fresh keys so that
// nodes split, while they read the hot set back; every value is its own
// key, so each read checks itself.
func Concurrent(t *testing.T, mk func() Store) {
	t.Run("disjoint", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		owner := map[string]int{}
		var keys [workers][][]byte
		for range workers * 3000 {
			k := Key(rng)
			w, ok := owner[string(k)]
			if !ok {
				w = len(owner) % workers
				owner[string(k)] = w
			}
			keys[w] = append(keys[w], k)
		}
		s := mk()
		cs := make([]*checker, workers)
		parallel(t, workers, func(w int) error {
			cs[w] = newChecker(s)
			for i, k := range keys[w] {
				if err := cs[w].step(k, i%3 != 2, fmt.Sprintf("w%d-%d", w, i)); err != nil {
					return fmt.Errorf("worker %d op %d: %v", w, i, err)
				}
			}
			return nil
		})
		sweep(t, cs...)
	})
	t.Run("hot", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		c := newChecker(mk())
		var hot [][]byte
		for len(hot) < 200 {
			k := Key(rng)
			if _, held := c.m.Get(string(k), 0); held {
				continue
			}
			if err := c.step(k, true, string(k)); err != nil {
				t.Fatal(err)
			}
			hot = append(hot, k)
		}
		fresh := make([][][]byte, workers)
		parallel(t, workers, func(w int) error {
			rng := rand.New(rand.NewSource(int64(w)))
			for i := range 10000 {
				k := hot[rng.Intn(len(hot))]
				switch rng.Intn(4) {
				case 0: // a fresh key, which may split a node under the readers
					k = Key(rng)
					fresh[w] = append(fresh[w], k)
					fallthrough
				case 1:
					c.s.Put(k, value.New(k))
				default:
					if v, ok := c.s.Get(k); !ok || !bytes.Equal(v.Col(0), k) {
						return fmt.Errorf("worker %d op %d: Get(%q) = %v,%v, want itself", w, i, k, v, ok)
					}
				}
			}
			return nil
		})
		for _, ks := range fresh {
			for _, k := range ks {
				c.note(k, string(k))
			}
		}
		sweep(t, c)
	})
}
