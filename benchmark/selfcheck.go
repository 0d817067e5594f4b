package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"time"
)

// quartiles returns what Python's statistics.quantiles(xs, n=4) returns (the
// default "exclusive" method), which is how the driver takes a metric's
// spread. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// invoke runs one child benchmark invocation and parses its last line.
func invoke(exe string, args []string) (*report, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%v: %w", args, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return nil, fmt.Errorf("%v: last line is not a report: %w", args, err)
	}
	if !rep.Correct {
		return nil, fmt.Errorf("%v: run reported incorrect outputs (%d of %d failed)", args, rep.Failed, rep.Attempted)
	}
	return &rep, nil
}

// selfCheck is the benchmark judging its own steadiness the way the driver
// will: per workload, two sets of runs of this same code, each run with
// another seed, the sets alternating A B A B so that slow drift of the box
// lands on both. It prints every end-to-end metric's set medians, quartiles,
// spread (interquartile distance over median) and the gap between the set
// medians, and fails if a gap exceeds half the metric's bound or a spread
// exceeds the bound.
func selfCheck(w io.Writer, m *manifest, runs int) error {
	if runs < 2 {
		return fmt.Errorf("--runs must be at least 2")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	start := time.Now()
	printEnv(w)
	fmt.Fprintf(w, "selfcheck runs_per_set=%d seconds=%d\n", runs, m.RunSeconds)
	fmt.Fprintf(w, "%-12s %-19s %12s %12s %12s %7s %12s %12s %12s %7s %7s %6s  %s\n", "workload", "metric",
		"A.q1", "A.median", "A.q3", "A.sprd", "B.q1", "B.median", "B.q3", "B.sprd", "gap", "bound", "verdict")
	failed := 0
	for _, wl := range m.Workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < runs; i++ {
			for set := 0; set < 2; set++ {
				seed := 1 + i + set*runs
				rep, err := invoke(exe, []string{"--workload", wl.Name, "--seed", strconv.Itoa(seed),
					"--seconds", strconv.Itoa(m.RunSeconds), "--trace", "0"})
				if err != nil {
					return err
				}
				for name, v := range rep.Metrics {
					sets[set][name] = append(sets[set][name], v.Value)
				}
			}
		}
		for _, e := range m.EndToEnd {
			a1, a2, a3 := quartiles(sets[0][e.Name])
			b1, b2, b3 := quartiles(sets[1][e.Name])
			sa, sb := (a3-a1)/a2, (b3-b1)/b2
			gap := (b2 - a2) / a2
			if gap < 0 {
				gap = -gap
			}
			verdict := "ok"
			// The driver exempts setup_s from the spread rule, not the gap rule.
			if gap > e.Bound/2 || (e.Name != "setup_s" && max(sa, sb) > e.Bound) {
				verdict = "FAIL"
				failed++
			}
			fmt.Fprintf(w, "%-12s %-19s %12.4f %12.4f %12.4f %7.4f %12.4f %12.4f %12.4f %7.4f %7.4f %6.2f  %s\n",
				wl.Name, e.Name, a1, a2, a3, sa, b1, b2, b3, sb, gap, e.Bound, verdict)
		}
	}
	fmt.Fprintf(w, "selfcheck took %.0fs, %d failing metric(s)\n", time.Since(start).Seconds(), failed)
	if failed > 0 {
		return fmt.Errorf("%d end-to-end metric(s) outside their bounds", failed)
	}
	return nil
}
