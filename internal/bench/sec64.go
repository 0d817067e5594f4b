package bench

import (
	"fmt"

	"repro/internal/baseline/btree"
	"repro/internal/baseline/hashtable"
	"repro/internal/baseline/seqtree"
	"repro/internal/core"
	"repro/internal/value"
	"repro/internal/workload"
)

// Sec64 reproduces §6.4's flexibility-cost measurements:
//
//   - variable-length keys: Masstree vs a fixed-8-byte-key B-tree on an
//     8-byte decimal get workload — the paper found only 0.8% difference.
//     The stand-in is "+Permuter", whose nodes compare 8-byte integers
//     inline as the paper's tree does, but which still loads one separate
//     key object, for the key it finds, to confirm the match;
//   - concurrency: single-worker put throughput, concurrent Masstree vs the
//     single-core variant with interlocked instructions removed — the paper
//     found a 13% penalty;
//   - range queries: a near-best-case hash table vs Masstree on 8-byte
//     alphabetical keys — the paper's table reached 2.5x.
func Sec64(sc Scale) *Table {
	sc = sc.withDefaults()
	t := &Table{
		ID:      "sec64",
		Title:   fmt.Sprintf("what flexibility costs, %d keys (§6.4)", sc.Keys),
		Headers: []string{"feature", "Masstree Mreq/s", "alternative Mreq/s", "alt/Masstree"},
	}

	// Variable-length keys: 8-byte decimal gets.
	keysPerWorker := sc.Keys / sc.Workers
	keys := make([][][]byte, sc.Workers)
	for w := range keys {
		keys[w] = workload.Keys(workload.Fixed8Decimal(int64(810+w)), keysPerWorker)
	}
	mt := core.New()
	bt := btree.New(btree.WithPermuter())
	for w := range keys {
		for _, k := range keys[w] {
			v := value.New(k)
			mt.Put(k, v)
			bt.Put(k, v)
		}
	}
	perWorker := sc.Ops / sc.Workers
	mtGet := measure(sc.Workers, perWorker, func(w, i int) { mt.Get(keys[w][(i*61)%keysPerWorker]) })
	btGet := measure(sc.Workers, perWorker, func(w, i int) { bt.Get(keys[w][(i*61)%keysPerWorker]) })
	t.Rows = append(t.Rows, []string{"variable-length keys (8B get)", mops(mtGet), mops(btGet), ratio(btGet, mtGet)})

	// Concurrency: one worker, put workload, concurrent vs sequential tree.
	seqKeys := workload.Keys(workload.Decimal(820), sc.Keys)
	mt2 := core.New()
	mtPut := measure(1, sc.Keys, func(_, i int) {
		k := seqKeys[i]
		mt2.Put(k, value.New(k))
	})
	st := seqtree.New()
	seqPut := measure(1, sc.Keys, func(_, i int) {
		k := seqKeys[i]
		st.Put(k, value.New(k))
	})
	t.Rows = append(t.Rows, []string{"concurrency (1-worker put)", mops(mtPut), mops(seqPut), ratio(seqPut, mtPut)})

	// Range-query support: hash table vs Masstree, 8-byte alpha keys.
	alpha := make([][][]byte, sc.Workers)
	for w := range alpha {
		alpha[w] = workload.Keys(workload.Alpha8(int64(830+w)), keysPerWorker)
	}
	mt3 := core.New()
	ht := hashtable.New(3 * sc.Keys) // ~30% occupancy, as in the paper
	for w := range alpha {
		for _, k := range alpha[w] {
			v := value.New(k)
			mt3.Put(k, v)
			ht.Put(k, v)
		}
	}
	mtGet3 := measure(sc.Workers, perWorker, func(w, i int) { mt3.Get(alpha[w][(i*61)%keysPerWorker]) })
	htGet := measure(sc.Workers, perWorker, func(w, i int) { ht.Get(alpha[w][(i*61)%keysPerWorker]) })
	t.Rows = append(t.Rows, []string{"range queries (hash get)", mops(mtGet3), mops(htGet), ratio(htGet, mtGet3)})
	return t
}
