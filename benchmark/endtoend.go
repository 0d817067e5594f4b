package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"
)

// setUpTimed runs set-up after a runtime.GC() and times it.
func setUpTimed(o options, sp spec, records int) (*host, float64, error) {
	runtime.GC()
	start := time.Now()
	h, err := setUp(sp, records, o.seed, o.root)
	if err != nil {
		return nil, 0, errors.Join(fmt.Errorf("set-up: %w", err), h.close())
	}
	return h, time.Since(start).Seconds(), nil
}

// runEndToEnd is the untraced run: set-up and the saturated phase; every
// end-to-end metric and nothing else.
func runEndToEnd(ctx context.Context, o options, sp spec, records int, p plan) (rep *report, err error) {
	h, setupS, err := setUpTimed(o, sp, records)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, h.close()) }()

	cursors := make([]int, numConns)
	runtime.GC()
	sat := h.runPhase(ctx, cursors, saturatedShape, p.warm, p.saturated, false)
	rep = &report{Attempted: sat.attempted, Failed: sat.failed}
	if sat.firstErr != nil {
		fmt.Fprintf(o.log, "failed-op %v\n", sat.firstErr)
	}

	rep.Correct = rep.Failed == 0

	tput, cycles := sat.throughput()
	rep.Metrics = map[string]metric{
		"setup_s":            {setupS, "s"},
		"tput_ops_s":         {tput, "1/s"},
		"heap_bytes_per_key": {h.heapPerKey, "B"},
	}
	fmt.Fprintf(o.log, "detail saturated whole_gc_cycles=%d tput_per_second=%.0f\n", cycles, sat.perSecond())
	printMetrics(o.log, rep.Metrics)
	return rep, nil
}
