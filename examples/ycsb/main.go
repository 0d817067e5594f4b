// MYCSB: run the paper's modified YCSB workloads (§7) against an embedded
// Masstree store and print throughput per workload.
//
//	go run ./examples/ycsb -records 100000 -ops 400000
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"sync"
	"time"

	"repro/internal/kvstore"
	"repro/internal/value"
	"repro/internal/ycsb"
)

func main() {
	var (
		records = flag.Uint64("records", 100_000, "database size")
		ops     = flag.Int("ops", 400_000, "operations per workload")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent clients")
	)
	flag.Parse()

	store, err := kvstore.Open(kvstore.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	fmt.Printf("loading %d records (%d columns x %d bytes)...\n", *records, ycsb.NumColumns, ycsb.ColumnSize)
	loader := store.Session(0)
	for i := uint64(0); i < *records; i++ {
		key, cols := ycsb.LoadRecord(i)
		puts := make([]value.ColPut, len(cols))
		for c, col := range cols {
			puts[c] = value.ColPut{Col: c, Data: col}
		}
		loader.Put(key, puts)
	}
	loader.Close()

	for _, name := range []string{"A", "B", "C", "E"} {
		perWorker := *ops / *workers
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < *workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// One session per goroutine, bound to its own worker log.
				sess := store.Session(w)
				defer sess.Close()
				var rs kvstore.RangeScratch
				var cols [][]byte
				src, err := ycsb.New(name, *records, int64(w+1))
				if err != nil {
					log.Fatal(err)
				}
				for i := 0; i < perWorker; i++ {
					op := src.Next()
					switch op.Kind {
					case ycsb.Read:
						if v, ok := sess.GetValue(op.Key); ok {
							cols = kvstore.AppendCols(cols[:0], v, ycsb.AllCols)
						}
					case ycsb.Update:
						sess.Put(op.Key, []value.ColPut{{Col: op.Col, Data: op.Data}})
					case ycsb.ScanOp:
						rs.Reset()
						sess.GetRangeInto(op.Key, op.ScanLen, []int{op.Col}, &rs)
					}
				}
			}(w)
		}
		wg.Wait()
		el := time.Since(start)
		tput := float64(perWorker**workers) / el.Seconds()
		fmt.Printf("MYCSB-%s: %8.0f ops/s  (%d ops in %s, %d workers)\n",
			name, tput, perWorker**workers, el.Round(time.Millisecond), *workers)
	}
}
