package bench

import (
	"fmt"

	"repro/internal/baseline/binarytree"
	"repro/internal/baseline/btree"
	"repro/internal/baseline/fourtree"
	"repro/internal/core"
	"repro/internal/superpage"
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

// fig8Rung is one rung of Figure 8's ladder: a named constructor, or the
// name of the earlier rung Go builds it exactly as (same), which is not
// measured again. The substitution that makes two rungs the same
// (+Prefetch → no prefetch) is flagged in the table notes. From +Superpage
// on, a rung collapses the heap onto 2 MiB pages after its build
// (superpage), so the ladder stays cumulative.
type fig8Rung struct {
	name      string
	mk        func() store
	same      string
	superpage bool
}

func fig8Ladder() []fig8Rung {
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
	return []fig8Rung{
		{name: "Binary", mk: wrapBin()},
		{name: "+Flow", mk: wrapBin(binarytree.WithArena())},
		{name: "+Superpage", mk: wrapBin(binarytree.WithArena()), superpage: true},
		{name: "+IntCmp", mk: wrapBin(binarytree.WithArena(), binarytree.WithIntCmp()), superpage: true},
		{name: "4-tree", mk: func() store {
			t := fourtree.New()
			return putAdapter{t.Get, func(k []byte, v *value.Value) { t.Put(k, v) }}
		}, superpage: true},
		{name: "B-tree", mk: wrapBtree(), superpage: true},
		{name: "+Prefetch", same: "B-tree"},
		{name: "+Permuter", mk: wrapBtree(btree.WithPermuter()), superpage: true},
		{name: "Masstree", mk: func() store {
			t := core.New()
			return putAdapter{t.Get, func(k []byte, v *value.Value) { t.Put(k, v) }}
		}, superpage: true},
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
			"+Flow realized as a chunked node arena (Go cannot swap allocators); +Superpage is +Flow with the heap collapsed onto 2 MiB pages (internal/superpage) after the put phase builds the tree, as is every later rung, so its get column reads from superpages and its put column, which is the build, still runs on 4 KiB pages",
			"+Prefetch has no counterpart here: the B-tree baseline prefetches nothing (it does not import internal/core's prefetch stub), so its row is B-tree's, not measured again",
			"the B-tree rungs compare each key's leading 8 bytes as an integer held in the node, so +IntCmp carries into the node",
			"relative columns are normalized to Binary's get throughput, as in the paper",
		},
	}

	var baseGet float64
	rows := map[string][]string{}
	for _, rung := range fig8Ladder() {
		var row []string
		if rung.same != "" {
			row = append([]string{rung.name}, rows[rung.same][1:]...)
		} else {
			getTput, putTput := fig8Measure(sc, rung.mk, rung.superpage)
			if rung.name == "Binary" {
				baseGet = getTput
			}
			row = []string{rung.name, mops(getTput), ratio(getTput, baseGet), mops(putTput), ratio(putTput, baseGet)}
		}
		rows[rung.name] = row
		t.Rows = append(t.Rows, row)
	}
	return t
}

func fig8Measure(sc Scale, mk func() store, collapse bool) (getTput, putTput float64) {
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

	if collapse {
		superpage.Collapse()
	}

	// Get workload: random hits against the populated store.
	getTput = measure(sc.Workers, sc.Ops/sc.Workers, func(w, i int) {
		st.Get(keys[w][(i*61)%keysPerWorker])
	})
	return getTput, putTput
}
