package kvstore

import (
	"fmt"
	"testing"

	"repro/internal/value"
)

// The multi-writer-per-key crash torture. The original harness pinned each
// key to one worker ("a key is always written through the same worker")
// because the paper's recovery was only immune to log loss under that
// assumption: a key whose partial-column deltas span logs could be
// mis-merged if the earlier log vanished wholesale. Version-chained records
// plus cross-log handoff anchoring retire the assumption, and this
// configuration is the retirement proof: shared keys deliberately hop
// workers between partial-column puts (putW/removeW), every filesystem
// boundary is crashed, and each worker's log files are removed wholesale
// in a vanished-log image. A mis-merge there — recovered columns that are
// no state the live store produced — is the one absolutely forbidden
// outcome.

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

// TestCrashTortureMultiWriter enumerates every filesystem boundary of the
// deterministic two-worker multi-writer workload (sequential ops, one
// checkpoint part, so the op stream is stable) and crashes at each one,
// recovering from the standard images plus the vanished-log images.
func TestCrashTortureMultiWriter(t *testing.T) {
	crashRun{workers: 2, parts: 1, workload: (*torture).workloadMultiWriter}.enumerate(t)
}
