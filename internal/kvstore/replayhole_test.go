package kvstore

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/clock"
	"repro/internal/model"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// TestPartialColumnReplayHole exercises the recovery hole that used to be
// recorded in ROADMAP.md (and kept this test skipped):
//
// Two workers writing *partial-column* puts to the same key through
// different logs could replay a later delta without an earlier one if the
// earlier log vanished entirely: an empty or missing log contributes no
// constraint to the recovery cutoff t = min over logs of the log's maximum
// durable timestamp, so nothing stopped replay from applying worker B's
// column-1 delta (ts_b) onto a state that never saw worker A's column-0
// delta (ts_a < ts_b). The paper's recovery has the same property.
//
// The fix closes the hole twice over. Cross-log handoff anchoring: worker
// B's put executes over a value stamped through worker A's log, so it is
// logged column-complete with prev == 0 — an anchor carrying both columns —
// and recovery rebuilds the full value from B's log alone. Chain
// validation: had the record been a plain linked delta, its prev link would
// not have matched the replayed state and the key would have rolled back to
// its last anchored prefix (counted in RecoveryStats.BrokenChains) instead
// of serving the mis-merge. Either way the logset file reports worker 0's
// log as missing. The one outcome that must never happen again is the one
// this test used to document: serving column 1's delta without column 0's.
func TestPartialColumnReplayHole(t *testing.T) {
	dir := t.TempDir()
	s := openAt(t, Config{Dir: dir, Workers: 2, SyncWrites: true}, clock.NewFake())
	// Worker 0 writes column 0, worker 1 then writes column 1 of the same
	// key: two partial-column deltas in two different logs, ts_a < ts_b.
	mr := newMirror(t, s, 2)
	mr.putW(0, "shared", col(0, "from-worker-0"))
	mr.putW(1, "shared", col(1, "from-worker-1"))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	mr.ref.Ack() // both deltas durable and acknowledged
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The adversity: worker 0's log vanishes wholesale (lost directory
	// entry, dead device — not a torn suffix). Worker 1's log survives.
	files, err := wal.ListLogFilesFS(vfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f.Worker == 0 {
			if err := os.Remove(filepath.Join(f.Path)); err != nil {
				t.Fatal(err)
			}
		}
	}

	r := openAt(t, Config{Dir: dir, Workers: 2, SyncWrites: true}, clock.NewFake())
	stats := r.RecoveryStats()
	if stats.MissingLogs != 1 {
		t.Errorf("RecoveryStats.MissingLogs = %d, want 1: exactly worker 0's log vanished", stats.MissingLogs)
	}
	// The model's rule for a recovered key: the acknowledged value, rebuilt
	// from the handoff anchor in worker 1's log with no broken chain, or a
	// rollback to a state it computed (here: nothing — the key's only anchor
	// was in the vanished log) only if accounted. Never a mixed state no
	// serial execution produced — column 1's delta without column 0's data.
	var st *model.State
	if v, ok := r.tree.Get([]byte("shared")); ok {
		got := stateOf(v)
		st = &got
	}
	if err := mr.ref.Recovered("shared", st, true); err != nil {
		t.Fatalf("partial-column replay hole reproduced: %v", err)
	}
	if rolledBack := mr.ref.Recovered("shared", st, false) != nil; rolledBack != (stats.BrokenChains > 0) {
		t.Errorf("recovered %v (a rollback: %v) with BrokenChains = %d", st, rolledBack, stats.BrokenChains)
	}
}
