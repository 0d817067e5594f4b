// Package bench regenerates the tables and figures of the paper's
// evaluation that this reproduction attempts (§6 tree evaluation, §5
// checkpointing) at configurable scale, plus one system experiment, obs
// (instrumentation overhead). Each experiment returns a Table whose rows
// mirror the paper's bars, series, or table cells; DESIGN.md's experiment
// index lists them.
//
// Absolute numbers differ from the paper's 16-core 2009-era testbed; the
// experiments are designed so the *shape* — who wins, by roughly what
// factor, where crossovers fall — is the reproducible output.
package bench

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/kvstore"
)

// Scale sizes the experiments. The paper's counterparts are 140M keys and
// 16 cores; defaults here are laptop-sized.
type Scale struct {
	Keys    int // dataset size per experiment
	Ops     int // total measured operations
	Workers int // concurrent load generators (defaults to GOMAXPROCS)
	Batch   int // ops per partition message (fig11)
}

// DefaultScale returns laptop-sized parameters.
func DefaultScale() Scale {
	return Scale{Keys: 200_000, Ops: 400_000, Workers: runtime.GOMAXPROCS(0), Batch: 64}
}

// SmokeScale is tiny, for tests.
func SmokeScale() Scale {
	return Scale{Keys: 3_000, Ops: 6_000, Workers: 2, Batch: 16}
}

func (s Scale) withDefaults() Scale {
	d := DefaultScale()
	if s.Keys <= 0 {
		s.Keys = d.Keys
	}
	if s.Ops <= 0 {
		s.Ops = d.Ops
	}
	if s.Workers <= 0 {
		s.Workers = d.Workers
	}
	if s.Batch <= 0 {
		s.Batch = d.Batch
	}
	return s
}

// Table is one experiment's result in the paper's layout.
type Table struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// mops formats a throughput as millions of requests per second.
func mops(opsPerSec float64) string {
	return fmt.Sprintf("%.3f", opsPerSec/1e6)
}

// pct formats x as a percentage of base.
func pct(x, base float64) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f", 100*x/base)
}

// ratio formats a relative throughput.
func ratio(x, base float64) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", x/base)
}

// measure runs workers concurrent goroutines, each executing fn(worker, i)
// for i in [0, perWorker), and returns aggregate operations per second.
func measure(workers, perWorker int, fn func(worker, i int)) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
	el := time.Since(start).Seconds()
	if el <= 0 {
		el = 1e-9
	}
	return float64(workers*perWorker) / el
}

// openSessions opens one session per worker on st — a session is the one
// way to operate on a store; closeSessions closes them.
func openSessions(st *kvstore.Store, workers int) []*kvstore.Session {
	ss := make([]*kvstore.Session, workers)
	for w := range ss {
		ss[w] = st.Session(w)
	}
	return ss
}

func closeSessions(ss []*kvstore.Session) {
	for _, s := range ss {
		s.Close()
	}
}

// Experiment is one generator and the id that selects it.
type Experiment struct {
	ID  string
	Run func(Scale) *Table
}

// Experiments lists every experiment once, in presentation order.
var Experiments = []Experiment{
	{"fig8", Fig8},
	{"fig9", Fig9},
	{"fig10", Fig10},
	{"fig11", Fig11},
	{"sec63", Sec63},
	{"sec64", Sec64},
	{"ckpt", Ckpt},
	{"retry", Retry},
	{"shape", Shape},
	{"obs", Obs},
}
