package bench

import (
	"fmt"
	"os"
	"runtime"

	"repro/internal/kvstore"
	"repro/internal/othersys"
	"repro/internal/value"
	"repro/internal/workload"
	"repro/internal/ycsb"
)

// masstreeBatcher drives the full Masstree system (logging on) through the
// same batch interface as the comparator stand-ins.
type masstreeBatcher struct {
	store    *kvstore.Store
	sessions []*kvstore.Session
	ranges   []kvstore.RangeScratch // one per session; a worker's scan results alias it until its next Exec
}

func newMasstreeBatcher(dir string, workers int) (*masstreeBatcher, error) {
	st, err := kvstore.Open(kvstore.Config{Dir: dir, Workers: workers})
	if err != nil {
		return nil, err
	}
	m := &masstreeBatcher{store: st, ranges: make([]kvstore.RangeScratch, workers)}
	for w := 0; w < workers; w++ {
		m.sessions = append(m.sessions, st.Session(w))
	}
	return m, nil
}

func (m *masstreeBatcher) Name() string            { return "Masstree" }
func (m *masstreeBatcher) SupportsRange() bool     { return true }
func (m *masstreeBatcher) SupportsColumnPut() bool { return true }

func (m *masstreeBatcher) Exec(worker int, ops []othersys.Op) []othersys.Result {
	sess := m.sessions[worker%len(m.sessions)]
	rng := &m.ranges[worker%len(m.sessions)]
	rng.Reset()
	res := make([]othersys.Result, len(ops))
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case othersys.OpGet:
			v, ok := sess.GetValue(op.Key)
			res[i] = othersys.Result{OK: ok}
			if ok {
				res[i].Cols = kvstore.AppendCols(nil, v, op.Cols)
			}
		case othersys.OpPut:
			sess.Put(op.Key, op.Puts)
			res[i] = othersys.Result{OK: true}
		case othersys.OpScan:
			pairs := sess.GetRangeInto(op.Key, op.N, op.Cols, rng)
			out := make([]othersys.Pair, len(pairs))
			for j, p := range pairs {
				out[j] = othersys.Pair{Key: p.Key, Cols: p.Cols}
			}
			res[i] = othersys.Result{OK: true, Pairs: out}
		}
	}
	return res
}

func (m *masstreeBatcher) Close() {
	for _, s := range m.sessions {
		s.Close()
	}
	m.store.Close()
}

// Fig13 reproduces Figure 13 (§7): Masstree versus the comparator stand-ins
// on uniform get/put (multi-core and one worker) and MYCSB-A/B/C/E. Cells
// are Mreq/s; per-column percentages of Masstree follow the paper's layout.
// "n/a" marks unsupported workloads (no range queries, no column puts —
// exactly the paper's empty cells).
func Fig13(sc Scale) *Table {
	sc = sc.withDefaults()
	records := uint64(sc.Keys / 10)
	if records < 1000 {
		records = 1000
	}
	t := &Table{
		ID:      "fig13",
		Title:   fmt.Sprintf("system comparison, %d records, %d workers, batch %d (Figure 13)", records, sc.Workers, sc.Batch),
		Headers: []string{"workload", "Masstree", "mongodb-like", "voltdb-like", "redis-like", "memcached-like"},
		Notes: []string{
			"comparators are in-process architectural stand-ins (DESIGN.md substitution #2); Masstree runs with logging enabled",
			"cells: Mreq/s (and % of Masstree); n/a = workload unsupported by that system, as in the paper",
		},
	}

	dir, err := os.MkdirTemp("", "fig13-masstree-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	redisDir, err := os.MkdirTemp("", "fig13-redis-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(redisDir)

	mt, err := newMasstreeBatcher(dir, sc.Workers)
	if err != nil {
		panic(err)
	}
	systems := []othersys.Batcher{
		mt,
		othersys.NewMongolike(8),
		othersys.NewVoltlike(16),
		othersys.NewRedislike(16, int(records)*2, redisDir),
		othersys.NewMemcachedlike(16, int(records)*2),
	}
	defer func() {
		for _, s := range systems {
			s.Close()
		}
	}()

	// Pre-populate every system with the MYCSB record set.
	for _, sys := range systems {
		var batch []othersys.Op
		for i := uint64(0); i < records; i++ {
			key, cols := ycsb.LoadRecord(i)
			puts := make([]value.ColPut, len(cols))
			for c, col := range cols {
				puts[c] = value.ColPut{Col: c, Data: col}
			}
			batch = append(batch, othersys.Op{Kind: othersys.OpPut, Key: key, Puts: puts})
			if len(batch) == 256 {
				sys.Exec(0, batch)
				batch = batch[:0]
			}
		}
		if len(batch) > 0 {
			sys.Exec(0, batch)
		}
	}

	rows := []struct {
		name    string
		workers int
		mkOps   func(worker int) func(i int, ops []othersys.Op)
		colPut  bool // requires column puts
		scan    bool // requires range queries
	}{
		{"uniform get", sc.Workers, uniformOps(records, true), false, false},
		{"uniform put", sc.Workers, uniformOps(records, false), false, false},
		{"1-core get", 1, uniformOps(records, true), false, false},
		{"1-core put", 1, uniformOps(records, false), false, false},
		{"MYCSB-A", sc.Workers, mycsbOps("A", records), true, false},
		{"MYCSB-B", sc.Workers, mycsbOps("B", records), true, false},
		{"MYCSB-C", sc.Workers, mycsbOps("C", records), false, false},
		{"MYCSB-E", sc.Workers, mycsbOps("E", records), true, true},
	}

	for _, row := range rows {
		cells := []string{row.name}
		var masstreeTput float64
		for si, sys := range systems {
			if (row.colPut && !sys.SupportsColumnPut()) || (row.scan && !sys.SupportsRange()) {
				cells = append(cells, "n/a")
				continue
			}
			batches := sc.Ops / row.workers / sc.Batch
			if batches == 0 {
				batches = 1
			}
			fills := make([]func(i int, ops []othersys.Op), row.workers)
			for w := range fills {
				fills[w] = row.mkOps(w)
			}
			opsBuf := make([][]othersys.Op, row.workers)
			for w := range opsBuf {
				opsBuf[w] = make([]othersys.Op, sc.Batch)
			}
			tput := measure(row.workers, batches, func(w, i int) {
				fills[w](i, opsBuf[w])
				sys.Exec(w, opsBuf[w])
			}) * float64(sc.Batch)
			if si == 0 {
				masstreeTput = tput
				cells = append(cells, mops(tput))
			} else {
				cells = append(cells, fmt.Sprintf("%s (%s%%)", mops(tput), pct(tput, masstreeTput)))
			}
		}
		t.Rows = append(t.Rows, cells)
	}
	runtime.KeepAlive(systems)
	return t
}

func pct(x, base float64) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f", 100*x/base)
}

// uniformOps fills batches with uniform-popularity single-column gets or
// puts over the record space (the paper's "uniform key popularity" rows).
func uniformOps(records uint64, get bool) func(worker int) func(i int, ops []othersys.Op) {
	return func(worker int) func(i int, ops []othersys.Op) {
		gen := workload.UniformRecordKeys(int64(worker+700), records)
		payload := []byte("8bytedat")
		return func(i int, ops []othersys.Op) {
			for j := range ops {
				k := gen.Next()
				if get {
					ops[j] = othersys.Op{Kind: othersys.OpGet, Key: k, Cols: []int{0}}
				} else {
					ops[j] = othersys.Op{Kind: othersys.OpPut, Key: k,
						Puts: []value.ColPut{{Col: 0, Data: payload}}}
				}
			}
		}
	}
}

// mycsbOps fills batches from a MYCSB source.
func mycsbOps(name string, records uint64) func(worker int) func(i int, ops []othersys.Op) {
	return func(worker int) func(i int, ops []othersys.Op) {
		src, err := ycsb.New(name, records, int64(worker+900))
		if err != nil {
			panic(err)
		}
		return func(i int, ops []othersys.Op) {
			for j := range ops {
				op := src.Next()
				switch op.Kind {
				case ycsb.Read:
					ops[j] = othersys.Op{Kind: othersys.OpGet, Key: op.Key, Cols: ycsb.AllCols}
				case ycsb.Update:
					ops[j] = othersys.Op{Kind: othersys.OpPut, Key: op.Key,
						Puts: []value.ColPut{{Col: op.Col, Data: op.Data}}}
				case ycsb.ScanOp:
					ops[j] = othersys.Op{Kind: othersys.OpScan, Key: op.Key, N: op.ScanLen, Cols: []int{op.Col}}
				}
			}
		}
	}
}
