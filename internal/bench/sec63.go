package bench

import (
	"fmt"
	"os"
	"sync/atomic"

	"repro/internal/baseline/binarytree"
	"repro/internal/kvstore"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/workload"
)

// binStore wraps the "+IntCmp" binary tree with the same per-worker logging
// infrastructure as Masstree, so §6.3's comparison isolates tree design
// inside an otherwise identical system.
type binStore struct {
	tree  *binarytree.Tree
	logs  *wal.Set
	clock atomic.Uint64
}

func (b *binStore) put(worker int, k []byte, v *value.Value) {
	ver := b.clock.Add(1)
	b.tree.Put(k, v)
	if b.logs != nil {
		lb := b.logs.Writer(worker).Begin()
		lb.Insert(ver, k, nil, v, false, 0)
		lb.End()
	}
}

// Sec63 reproduces §6.3 ("System relevance of tree design"): with logging
// on, Masstree versus the fastest binary tree from Figure 8. The paper
// measured 1.90x (gets) and 1.53x (puts) on 140M keys; at laptop scale the
// trees are closer (shallower trees shrink the DRAM-latency gap), and the
// point is that the win survives the full system's logging overheads.
func Sec63(sc Scale) *Table {
	sc = sc.withDefaults()
	t := &Table{
		ID:      "sec63",
		Title:   fmt.Sprintf("tree design inside the full system (logging on), %d keys (§6.3)", sc.Keys),
		Headers: []string{"system", "get Mreq/s", "put Mreq/s"},
		Notes: []string{
			"both stores run per-worker group-commit logging; paper adds network I/O, here covered separately by the server tests",
		},
	}

	keysPerWorker := sc.Keys / sc.Workers
	keys := make([][][]byte, sc.Workers)
	for w := range keys {
		keys[w] = workload.Keys(workload.Decimal(int64(800+w)), keysPerWorker)
	}

	// Masstree with logging.
	mtDir, err := os.MkdirTemp("", "sec63-mt-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(mtDir)
	st, err := kvstore.Open(kvstore.Config{Dir: mtDir, Workers: sc.Workers})
	if err != nil {
		panic(err)
	}
	defer st.Close()
	mt := openSessions(st, sc.Workers)
	mtPut := measure(sc.Workers, keysPerWorker, func(w, i int) {
		k := keys[w][i]
		mt[w].PutSimple(k, k)
	})
	mtGet := measure(sc.Workers, sc.Ops/sc.Workers, func(w, i int) {
		mt[w].GetValue(keys[w][(i*61)%keysPerWorker])
	})
	t.Rows = append(t.Rows, []string{"Masstree", mops(mtGet), mops(mtPut)})

	// +IntCmp binary tree with the same logging.
	binDir, err := os.MkdirTemp("", "sec63-bin-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(binDir)
	logs, err := wal.OpenSet(binDir, sc.Workers, 1, false, 0)
	if err != nil {
		panic(err)
	}
	defer logs.Close()
	bs := &binStore{tree: binarytree.New(binarytree.WithIntCmp(), binarytree.WithArena()), logs: logs}
	binPut := measure(sc.Workers, keysPerWorker, func(w, i int) {
		k := keys[w][i]
		bs.put(w, k, value.New(k))
	})
	binGet := measure(sc.Workers, sc.Ops/sc.Workers, func(w, i int) {
		bs.tree.Get(keys[w][(i*61)%keysPerWorker])
	})
	t.Rows = append(t.Rows, []string{"+IntCmp binary", mops(binGet), mops(binPut)})
	t.Rows = append(t.Rows, []string{"Masstree/+IntCmp", ratio(mtGet, binGet), ratio(mtPut, binPut)})
	return t
}
