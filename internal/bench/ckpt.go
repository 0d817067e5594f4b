package bench

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/kvstore"
	"repro/internal/workload"
)

// Ckpt reproduces §5's checkpoint and recovery measurements: time to write a
// checkpoint of the full store, time to recover from it, and put throughput
// while a checkpoint runs relative to undisturbed throughput (the paper
// reports 72% due to disk contention).
func Ckpt(sc Scale) *Table {
	sc = sc.withDefaults()
	t := &Table{
		ID:      "ckpt",
		Title:   fmt.Sprintf("checkpoint and recovery, %d keys (§5)", sc.Keys),
		Headers: []string{"metric", "value"},
	}
	dir, err := os.MkdirTemp("", "ckpt-bench-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	st, err := kvstore.Open(kvstore.Config{Dir: dir, Workers: sc.Workers})
	if err != nil {
		panic(err)
	}
	ss := openSessions(st, sc.Workers)
	keys := workload.UniqueKeys(workload.Decimal(77), sc.Keys)
	for i, k := range keys {
		ss[i%sc.Workers].PutSimple(k, k)
	}

	// Baseline put throughput (updates of existing keys).
	perWorker := sc.Ops / sc.Workers / 4
	if perWorker == 0 {
		perWorker = 1
	}
	base := measure(sc.Workers, perWorker, func(w, i int) {
		k := keys[(w*perWorker+i*61)%len(keys)]
		ss[w].PutSimple(k, k)
	})

	// Checkpoint alone.
	start := time.Now()
	_, n, err := st.CheckpointN(0)
	if err != nil {
		panic(err)
	}
	ckptDur := time.Since(start)

	// Put throughput while a checkpoint runs concurrently.
	var running atomic.Bool
	running.Store(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for running.Load() {
			if _, _, err := st.CheckpointN(0); err != nil {
				return
			}
		}
	}()
	during := measure(sc.Workers, perWorker, func(w, i int) {
		k := keys[(w*perWorker+i*61)%len(keys)]
		ss[w].PutSimple(k, k)
	})
	running.Store(false)
	<-done
	if err := st.Close(); err != nil {
		panic(err)
	}

	// Recovery from checkpoint + logs.
	start = time.Now()
	st2, err := kvstore.Open(kvstore.Config{Dir: dir, Workers: sc.Workers})
	if err != nil {
		panic(err)
	}
	recDur := time.Since(start)
	recovered := st2.Len()
	st2.Close()

	t.Rows = append(t.Rows,
		[]string{"keys checkpointed", fmt.Sprintf("%d", n)},
		[]string{"checkpoint time", ckptDur.Round(time.Millisecond).String()},
		[]string{"recovery time", recDur.Round(time.Millisecond).String()},
		[]string{"keys recovered", fmt.Sprintf("%d", recovered)},
		[]string{"put Mreq/s undisturbed", mops(base)},
		[]string{"put Mreq/s during checkpoint", mops(during)},
		[]string{"throughput retained", pct(during, base) + "%"},
	)
	t.Notes = append(t.Notes, "paper: 58 s checkpoint / 38 s recovery at 140M keys; 72% put throughput during checkpoints")
	return t
}
