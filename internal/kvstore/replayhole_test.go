package kvstore

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/value"
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
	s, err := Open(Config{Dir: dir, Workers: 2, SyncWrites: true, FlushInterval: time.Hour, MaintainEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("shared")
	// Worker 0 writes column 0, worker 1 then writes column 1 of the same
	// key: two partial-column deltas in two different logs, ts_a < ts_b.
	ss := sessions(t, s, 2)
	ss[0].Put(key, []value.ColPut{{Col: 0, Data: []byte("from-worker-0")}})
	ss[1].Put(key, []value.ColPut{{Col: 1, Data: []byte("from-worker-1")}})
	if err := s.Flush(); err != nil { // both deltas durable and acknowledged
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The adversity: worker 0's log vanishes wholesale (lost directory
	// entry, dead device — not a torn suffix). Worker 1's log survives.
	files, err := wal.ListLogFiles(dir)
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

	r, err := Open(Config{Dir: dir, Workers: 2, SyncWrites: true, FlushInterval: time.Hour, MaintainEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	stats := r.RecoveryStats()
	if stats.MissingLogs != 1 {
		t.Errorf("RecoveryStats.MissingLogs = %d, want 1: exactly worker 0's log vanished", stats.MissingLogs)
	}
	v, ok := sessions(t, r, 1)[0].GetValue(key)
	cols := v.Cols()
	switch {
	case ok && len(cols) >= 2 && string(cols[0]) == "from-worker-0" && string(cols[1]) == "from-worker-1":
		// The handoff anchor in worker 1's log carried both columns:
		// recovery rebuilt the exact acknowledged value.
		if stats.BrokenChains != 0 {
			t.Errorf("BrokenChains = %d on a fully rebuilt value, want 0", stats.BrokenChains)
		}
	case !ok || len(cols) == 0 || (len(cols) >= 1 && string(cols[0]) == "" && len(cols) < 2):
		// Rollback to the anchored prefix (here: nothing — the key's only
		// anchor was in the vanished log) is acceptable only if accounted.
		if stats.BrokenChains < 1 {
			t.Errorf("key rolled back (cols=%q ok=%v) but BrokenChains = %d, want >= 1",
				cols, ok, stats.BrokenChains)
		}
	default:
		// The outcome that must never recur: a mixed state no serial
		// execution produced — column 1's delta without column 0's data.
		t.Fatalf("partial-column replay hole reproduced: recovered %q (ok=%v), want the full value or an accounted rollback", cols, ok)
	}
}
