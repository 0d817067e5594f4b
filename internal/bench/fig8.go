package bench

import (
	"fmt"

	"repro/internal/baseline/binarytree"
	"repro/internal/baseline/btree"
	"repro/internal/baseline/fourtree"
	"repro/internal/core"
	"repro/internal/value"
	"repro/internal/workload"
)

// store is the minimal interface the factor analysis drives.
type store interface {
	Get(key []byte) (*value.Value, bool)
	Put(key []byte, v *value.Value)
}

type putAdapter struct {
	get func([]byte) (*value.Value, bool)
	put func([]byte, *value.Value)
}

func (a putAdapter) Get(k []byte) (*value.Value, bool) { return a.get(k) }
func (a putAdapter) Put(k []byte, v *value.Value)      { a.put(k, v) }

// fig8Ladder returns Figure 8's design-feature ladder: each rung a named
// constructor. Go-specific substitutions (+Flow/+Superpage → node arena,
// +Prefetch → no-op) are flagged in the table notes.
func fig8Ladder() []struct {
	name string
	mk   func() store
} {
	wrapBin := func(opts ...binarytree.Option) func() store {
		return func() store {
			t := binarytree.New(opts...)
			return putAdapter{t.Get, func(k []byte, v *value.Value) { t.Put(k, v) }}
		}
	}
	wrapBtree := func(opts ...btree.Option) func() store {
		return func() store {
			t := btree.New(opts...)
			return putAdapter{t.Get, func(k []byte, v *value.Value) { t.Put(k, v) }}
		}
	}
	return []struct {
		name string
		mk   func() store
	}{
		{"Binary", wrapBin()},
		{"+Flow", wrapBin(binarytree.WithArena())},
		{"+Superpage", wrapBin(binarytree.WithArena())},
		{"+IntCmp", wrapBin(binarytree.WithArena(), binarytree.WithIntCmp())},
		{"4-tree", func() store {
			t := fourtree.New()
			return putAdapter{t.Get, func(k []byte, v *value.Value) { t.Put(k, v) }}
		}},
		{"B-tree", wrapBtree()},
		{"+Prefetch", wrapBtree()},
		{"+Permuter", wrapBtree(btree.WithPermuter())},
		{"Masstree", func() store {
			t := core.New()
			return putAdapter{t.Get, func(k []byte, v *value.Value) { t.Put(k, v) }}
		}},
	}
}

// Fig8 reproduces Figure 8 (§6.2): contributions of design features to
// Masstree's performance on 1-to-10-byte decimal get and put workloads.
// Numbers are throughput in Mreq/s plus the paper-style ratio relative to
// the binary tree running the get workload.
func Fig8(sc Scale) *Table {
	sc = sc.withDefaults()
	t := &Table{
		ID:      "fig8",
		Title:   fmt.Sprintf("factor analysis, %d keys, %d workers (Figure 8)", sc.Keys, sc.Workers),
		Headers: []string{"design", "get Mreq/s", "get rel", "put Mreq/s", "put rel"},
		Notes: []string{
			"+Flow/+Superpage realized as a chunked node arena (Go cannot swap allocators); the two rungs coincide here",
			"+Prefetch is a documented no-op (the baseline does not yet import internal/core's prefetch stub); node layout is unchanged",
			"relative columns are normalized to Binary's get throughput, as in the paper",
		},
	}

	var baseGet float64
	for _, rung := range fig8Ladder() {
		getTput, putTput := fig8Measure(sc, rung.mk)
		if rung.name == "Binary" {
			baseGet = getTput
		}
		t.Rows = append(t.Rows, []string{
			rung.name, mops(getTput), ratio(getTput, baseGet), mops(putTput), ratio(putTput, baseGet),
		})
	}
	return t
}

func fig8Measure(sc Scale, mk func() store) (getTput, putTput float64) {
	// Pre-materialize per-worker key streams so workload generation cost is
	// identical (and negligible) for every rung.
	keysPerWorker := sc.Keys / sc.Workers
	keys := make([][][]byte, sc.Workers)
	vals := make([][]*value.Value, sc.Workers)
	for w := range keys {
		keys[w] = workload.Keys(workload.Decimal(int64(1000+w)), keysPerWorker)
		vals[w] = make([]*value.Value, keysPerWorker)
		for i, k := range keys[w] {
			vals[w][i] = value.New(k)
		}
	}

	// Put workload: fresh store, insert all keys. The few decimal draws that
	// repeat become updates: n²/2^32 of n draws, about 930 of 2 M (0.05 %).
	st := mk()
	putTput = measure(sc.Workers, keysPerWorker, func(w, i int) {
		st.Put(keys[w][i], vals[w][i])
	})

	// Get workload: random hits against the populated store.
	getTput = measure(sc.Workers, sc.Ops/sc.Workers, func(w, i int) {
		st.Get(keys[w][(i*61)%keysPerWorker])
	})
	return getTput, putTput
}
