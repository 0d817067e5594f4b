// Command masstree-bench regenerates the paper's tables and figures
// (DESIGN.md's experiment index). Each experiment prints a text table whose
// rows mirror the paper's bars, series, or cells.
//
// Usage:
//
//	masstree-bench -run all
//	masstree-bench -run fig8,fig11 -keys 500000 -ops 1000000 -workers 4
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		run     = flag.String("run", "all", "comma-separated experiment ids, or 'all' (ids: "+ids()+")")
		keys    = flag.Int("keys", 0, "dataset size (0 = default)")
		ops     = flag.Int("ops", 0, "measured operations (0 = default)")
		workers = flag.Int("workers", 0, "load-generating workers (0 = GOMAXPROCS)")
		batch   = flag.Int("batch", 0, "ops per partition message in fig11 (0 = default)")
	)
	flag.Parse()

	sc := bench.Scale{Keys: *keys, Ops: *ops, Workers: *workers, Batch: *batch}
	exps := bench.Experiments
	if *run != "all" {
		exps = nil
		for _, id := range strings.Split(*run, ",") {
			id = strings.TrimSpace(id)
			e, ok := lookup(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "masstree-bench: unknown experiment %q (have: %s)\n", id, ids())
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}

	fmt.Printf("masstree-bench: GOMAXPROCS=%d, %s\n\n", runtime.GOMAXPROCS(0), time.Now().Format(time.RFC3339))
	for _, e := range exps {
		start := time.Now()
		tbl := e.Run(sc)
		fmt.Print(tbl.Render())
		fmt.Printf("(%s elapsed)\n\n", time.Since(start).Round(time.Millisecond))
	}
}

// lookup finds the experiment with the given id.
func lookup(id string) (bench.Experiment, bool) {
	for _, e := range bench.Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return bench.Experiment{}, false
}

// ids lists the experiment ids, comma-separated, in presentation order.
func ids() string {
	names := make([]string, len(bench.Experiments))
	for i, e := range bench.Experiments {
		names[i] = e.ID
	}
	return strings.Join(names, ", ")
}
