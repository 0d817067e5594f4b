// Command benchmark is the repository's one benchmark: a closed-loop client
// driving a durable store through the real TCP server in one process, with
// end-to-end metrics from untraced runs and per-layer metrics from a
// separate traced run. See README.md for the workloads, the metrics and why
// each exists; BENCHMARK.json at the repository root names them.
//
//	go run ./benchmark --workload get-uniform --seed 1 --seconds 15 --trace 0
//	go run ./benchmark --list
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// metric is one reported number. The JSON form is the contract's.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runDeadline is when a run stops waiting for responses.
const runDeadline = 150 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // parent of the run's temporary data directory
	outDir   string // where a traced run writes its spans
	log      io.Writer
}

func main() {
	var o options
	var trace int
	var list, selfcheck bool
	var runs int
	flag.StringVar(&o.workload, "workload", "", "workload name (see --list)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generator")
	flag.IntVar(&o.seconds, "seconds", 15, "seconds of timed phases")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.BoolVar(&list, "list", false, "print workload and metric names and exit")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run two alternating sets of runs per workload and compare them")
	flag.IntVar(&runs, "runs", 5, "runs per set for --selfcheck")
	flag.Parse()
	o.trace = trace != 0
	o.root = ".bench_build"
	o.outDir = "benchmark/out"
	o.log = os.Stdout

	switch {
	case list, selfcheck:
		m, err := readManifest("BENCHMARK.json")
		if err == nil && list {
			printList(os.Stdout, m)
		} else if err == nil {
			err = selfCheck(os.Stdout, m, runs)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	default:
		// The contract gives a run 180 s. Past runDeadline every outstanding
		// request times out, which fails the run but still tears it down.
		ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
		defer cancel()
		rep, err := run(ctx, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		line, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", line)
	}
}

// commit reports the VCS revision the binary was built from, when the build
// recorded one (a driver checkout is not a git repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func printEnv(w io.Writer) {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "default(100)"
	}
	fmt.Fprintf(w, "env nproc=%d GOMAXPROCS=%d GOGC=%s go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), gogc, runtime.Version(), commit())
}

func printMetrics(w io.Writer, ms map[string]metric) {
	for _, n := range slices.Sorted(maps.Keys(ms)) {
		fmt.Fprintf(w, "metric %-32s %16.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// run executes one invocation: an end-to-end run, or with o.trace a traced
// run. The data directory is removed on every path out.
func run(ctx context.Context, o options) (rep *report, err error) {
	sp, ok := findSpec(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (see --list)", o.workload)
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	p := newPlan(o.seconds, o.trace)
	printEnv(o.log)
	fmt.Fprintf(o.log, "run workload=%s seed=%d records=%d trace=%v warm=%v unloaded=%v saturated=%v traced=%v\n",
		sp.name, o.seed, sp.records, o.trace, p.warm, p.unloaded, p.saturated, p.traced)
	if o.trace {
		return runTraced(ctx, o, sp, sp.records, p)
	}
	return runEndToEnd(ctx, o, sp, sp.records, p)
}
