package bench

import (
	"fmt"

	"repro/internal/baseline/btree"
	"repro/internal/core"
	"repro/internal/value"
	"repro/internal/workload"
)

// Fig9 reproduces Figure 9 (§6.4 "Keys with common prefixes"): get
// throughput as key length grows while only the final 8 bytes vary. From 16
// bytes on, every key has the same leading 8 bytes, so the B-tree's in-node
// integer compare ties on every key and loads the stored key object; beyond
// its 16 inline bytes every comparison chases the whole key as well (a DRAM
// fetch). Masstree walks one trie layer per 8 prefix bytes and then
// compares single slices, so its advantage grows with prefix length.
func Fig9(sc Scale) *Table {
	sc = sc.withDefaults()
	t := &Table{
		ID:      "fig9",
		Title:   fmt.Sprintf("shared-prefix key length vs get throughput, %d keys (Figure 9)", sc.Keys),
		Headers: []string{"key length", "Masstree Mreq/s", "+Permuter Mreq/s", "Masstree/+Permuter"},
		Notes: []string{
			"keys share their prefix; only the final 8 bytes vary (paper X axis 8..48)",
		},
	}
	for _, keyLen := range []int{8, 16, 24, 32, 40, 48} {
		keysPerWorker := sc.Keys / sc.Workers
		keys := make([][][]byte, sc.Workers)
		for w := range keys {
			keys[w] = workload.Keys(workload.Prefixed(int64(300+w), keyLen), keysPerWorker)
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
		mtTput := measure(sc.Workers, perWorker, func(w, i int) {
			mt.Get(keys[w][(i*61)%keysPerWorker])
		})
		btTput := measure(sc.Workers, perWorker, func(w, i int) {
			bt.Get(keys[w][(i*61)%keysPerWorker])
		})
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", keyLen), mops(mtTput), mops(btTput), ratio(mtTput, btTput),
		})
	}
	return t
}
