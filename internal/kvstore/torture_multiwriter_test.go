package kvstore

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/value"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// The multi-writer-per-key crash torture. The original harness pinned each
// key to one worker ("a key is always written through the same worker")
// because the paper's recovery was only immune to log loss under that
// assumption: a key whose partial-column deltas span logs could be
// mis-merged if the earlier log vanished wholesale. Version-chained records
// plus cross-log handoff anchoring retire the assumption, and this file is
// the retirement proof: shared keys deliberately hop workers between
// partial-column puts, every filesystem boundary is crashed, and on top of
// the standard crash images a new adversity removes one worker's log files
// wholesale. The model demands exact per-key column state everywhere —
// recovered (version, columns) must equal some state the live store
// actually produced, never a mix — and any state older than the last
// acknowledged one is tolerated only when recovery itself accounted for it
// (RecoveryStats.BrokenChains / MissingLogs).

// putW writes key through an explicit worker, updating the model exactly
// like put. Keys written through putW hop logs on purpose.
func (tt *torture) putW(worker int, key string, puts ...value.ColPut) {
	h := tt.histOf(key)
	h.worker = worker
	ver := tt.s.Put(worker, []byte(key), puts)
	cols, ok := tt.s.Get([]byte(key), nil)
	if !ok {
		fatalDump(tt.t, tt.s, "key %q vanished right after put", key)
	}
	h.states = append(h.states, kvState{ver: ver, data: joinCols(cols)})
	h.dropped = false
}

// removeW is remove through an explicit worker.
func (tt *torture) removeW(worker int, key string) {
	h := tt.histOf(key)
	h.worker = worker
	if tt.s.Remove(worker, []byte(key)) {
		h.states = append(h.states, kvState{tomb: true})
	}
}

// workloadMultiWriter drives shared keys through alternating workers with
// partial-column puts: every column of a key may live in a different log,
// chains hop logs mid-key (each hop forced to anchor), and a checkpoint
// plus a remove/re-insert cycle land mid-history.
func (tt *torture) workloadMultiWriter() error {
	// Phase 1: each key's columns built up through different logs.
	for i := 0; i < 6; i++ {
		k := fmt.Sprintf("mw%02d", i)
		tt.putW(0, k, value.ColPut{Col: 0, Data: []byte(fmt.Sprintf("w0c0-%d", i))})
		tt.putW(1, k, value.ColPut{Col: 1, Data: []byte(fmt.Sprintf("w1c1-%d", i))})
	}
	// A same-slice pair, one key from each worker: a twig from here on.
	tt.putW(0, "mwtwig00-x", value.ColPut{Col: 0, Data: []byte("w0x")})
	tt.putW(1, "mwtwig00-y", value.ColPut{Col: 0, Data: []byte("w1y")})
	if err := tt.ack(); err != nil {
		return err
	}
	if err := tt.ckpt(); err != nil {
		return err
	}
	// Phase 2: single-column overwrites hopping workers over checkpointed
	// state, plus a cross-worker remove.
	for i := 0; i < 6; i++ {
		k := fmt.Sprintf("mw%02d", i)
		tt.putW(i%2, k, value.ColPut{Col: i % 2, Data: []byte(fmt.Sprintf("r2-%d", i))})
	}
	tt.removeW(1, "mw00")
	tt.putW(1, "mwtwig00-x", value.ColPut{Col: 1, Data: []byte("w1x-c1")})
	tt.removeW(0, "mwtwig00-y")
	// Mixed frames trading the same keys between the workers: every put over
	// the other worker's value is a handoff anchor inside a segment, the
	// second put of a same-key pair a linked delta right behind it.
	tt.frame(1,
		putOp("mw02", value.ColPut{Col: 0, Data: []byte("f2-w1c0")}), getOp("mw02"), getOp("mw00"),
		putOp("mw02", value.ColPut{Col: 1, Data: []byte("f2-w1c1")}),
		getOp("mw03"), putOp("mw03", value.ColPut{Col: 1, Data: []byte("f2-w1")}))
	tt.frame(0,
		getOp("mw02"), putOp("mw02", value.ColPut{Col: 1, Data: []byte("f2-w0c1")}),
		putOp("mw04", value.ColPut{Col: 0, Data: []byte("f2-w0")}), getOp("mw04"),
		putOp("mw04", value.ColPut{Col: 1, Data: []byte("f2-w0-again")}))
	if err := tt.ack(); err != nil {
		return err
	}
	// Phase 3: re-insert through the other worker, then three-hop keys
	// (w0, w1, w0 again) so chains cross logs twice.
	tt.putW(0, "mw00", value.ColPut{Col: 0, Data: []byte("reborn")})
	tt.putW(1, "mw00", value.ColPut{Col: 1, Data: []byte("reborn-c1")})
	tt.putW(1, "mwtwig00-y", value.ColPut{Col: 1, Data: []byte("reborn-y")})
	tt.putW(0, "mwtwig00-x", value.ColPut{Col: 0, Data: []byte("w0x-again")})
	for i := 0; i < 4; i++ {
		k := fmt.Sprintf("hop%02d", i)
		tt.putW(0, k, value.ColPut{Col: 0, Data: []byte("h0")})
		tt.putW(1, k, value.ColPut{Col: 1, Data: []byte("h1")})
		tt.putW(0, k, value.ColPut{Col: 2, Data: []byte("h2")})
	}
	if err := tt.ack(); err != nil {
		return err
	}
	// Phase 4: applied but never acknowledged (may or may not survive).
	tt.putW(1, "mw01", value.ColPut{Col: 0, Data: []byte("pending")})
	tt.putW(0, "unacked-new", value.ColPut{Col: 0, Data: []byte("pending2")})
	return nil
}

// verifyVanished recovers from img after removing every log file of the
// given worker — the whole-log-removal crash image — and checks the
// weakened-but-accounted model: exact states only (a recovered key still
// equals some applied state, byte for byte — the mis-merge this image used
// to produce is the one absolutely forbidden outcome), no never-written
// keys, and any state older than acknowledged (or an acknowledged key gone
// entirely) only with BrokenChains or MissingLogs reporting it.
func (tt *torture) verifyVanished(img *vfs.MemFS, vanished int, label string) {
	t := tt.t
	// An early crash may leave no durable directory at all — then there is
	// nothing to vanish and recovery starts from scratch anyway.
	if files, err := wal.ListLogFilesFS(img, tortureDir); err == nil {
		for _, f := range files {
			if f.Worker == vanished {
				if err := img.Remove(f.Path); err != nil {
					t.Fatalf("%s: removing %s: %v", label, f.Path, err)
				}
			}
		}
		img.SyncDir(tortureDir)
	}
	r, err := Open(Config{
		Dir: tortureDir, Workers: tt.workers, FS: img, SyncWrites: true,
		FlushInterval: time.Hour, MaintainEvery: -1, CheckpointParts: tt.parts,
	})
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", label, err)
	}
	defer r.Close()
	stats := r.RecoveryStats()
	rolledBack := false
	r.Tree().Scan(nil, func(k []byte, v *value.Value) bool {
		h := tt.hist[string(k)]
		if h == nil {
			fatalDump(t, r, "%s: recovered key %q that was never written", label, k)
		}
		idx := -1
		for j, st := range h.states {
			if !st.tomb && st.ver == v.Version() {
				idx = j
				break
			}
		}
		if idx < 0 {
			fatalDump(t, r, "%s: key %q recovered at version %d, matching no applied state", label, k, v.Version())
		}
		if got := joinCols(v.Cols()); got != h.states[idx].data {
			fatalDump(t, r, "%s: key %q version %d recovered %q, applied state was %q (mis-merged)",
				label, k, v.Version(), got, h.states[idx].data)
		}
		if idx < h.acked {
			rolledBack = true
		}
		return true
	})
	for k, h := range tt.hist {
		if _, ok := r.Get([]byte(k), nil); ok {
			continue
		}
		if h.acked < 0 || h.dropped {
			continue
		}
		tomb := false
		for j := h.acked; j < len(h.states); j++ {
			if h.states[j].tomb {
				tomb = true
				break
			}
		}
		if !tomb {
			rolledBack = true
			_ = k
		}
	}
	if rolledBack && stats.BrokenChains == 0 && stats.MissingLogs == 0 {
		fatalDump(t, r, "%s: state rolled back below an acknowledged write with no broken_chains/missing_logs accounting", label)
	}
}

// runTortureMultiWriter executes the multi-writer workload with a crash
// armed at boundary crashAt (0 = disarmed), then verifies recovery from
// every standard crash image under the full model, and from the keep-all
// image with each worker's logs removed wholesale under the accounted
// model.
func runTortureMultiWriter(t *testing.T, crashAt, workers int) (ops int, crashed bool) {
	mem := vfs.NewMemFS()
	fault := vfs.NewFault(mem)
	fault.CrashAt(crashAt)
	tt := &torture{t: t, mem: mem, fault: fault, hist: map[string]*keyHist{}, workers: workers, parts: 1}
	s, err := Open(Config{
		Dir: tortureDir, Workers: workers, FS: fault, SyncWrites: true,
		FlushInterval: time.Hour, MaintainEvery: -1, CheckpointParts: 1,
	})
	if err != nil {
		if !errors.Is(err, vfs.ErrCrashed) {
			t.Fatalf("crashAt=%d: open: %v", crashAt, err)
		}
	} else {
		tt.s = s
		if werr := tt.workloadMultiWriter(); werr != nil && !errors.Is(werr, vfs.ErrCrashed) {
			t.Fatalf("crashAt=%d: workload: %v", crashAt, werr)
		}
		if cerr := s.Close(); cerr == nil && !fault.Crashed() {
			tt.promote()
		}
	}
	ops, crashed = fault.Ops(), fault.Crashed()
	for _, img := range crashImages {
		c := mem.Clone()
		c.Crash(img.keep)
		tt.verify(c, fmt.Sprintf("mw crashAt=%d/%s", crashAt, img.name))
	}
	for w := 0; w < workers; w++ {
		c := mem.Clone()
		c.Crash(vfs.KeepAll)
		tt.verifyVanished(c, w, fmt.Sprintf("mw crashAt=%d/vanish-log-%d", crashAt, w))
	}
	return ops, crashed
}

// TestCrashTortureMultiWriter enumerates every filesystem boundary of the
// deterministic two-worker multi-writer workload (sequential ops, one
// checkpoint part, so the op stream is stable) and crashes at each one,
// recovering from the standard images plus the vanished-log images.
func TestCrashTortureMultiWriter(t *testing.T) {
	total, crashed := runTortureMultiWriter(t, 0, 2)
	if crashed {
		t.Fatal("disarmed run crashed")
	}
	t.Logf("multi-writer workload executes %d crash boundaries x %d images",
		total, len(crashImages)+2)
	for i := 1; i <= total; i++ {
		runTortureMultiWriter(t, i, 2)
	}
}
