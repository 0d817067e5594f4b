package kvstore

import (
	"os"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/value"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// TestExpiredBaseNotResurrected pins the write-side half of lazy expiry: a
// put over a lazily-expired value builds on an absent base, so a partial-
// column put must not revive the dead value's other columns or keep its
// expiry — in memory and across recovery (the implicit remove is logged
// ahead of the put). The model computes what the put leaves.
func TestExpiredBaseNotResurrected(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), Workers: 1}
	s := openAt(t, cfg, clock.NewFake())
	mr := newMirror(t, s, 1)
	mr.putTTLW(0, "k", -1, col(0, "col0-old"), col(1, "col1-secret"))
	mr.putW(0, "k", col(0, "col0-new")) // lands on the absent key
	mr.matches(s, "live")
	mr.matches(restart(t, s, cfg), "recovered")
}

// TestExpiredBaseBatch is TestExpiredBaseNotResurrected through the batched
// put path, mixing expired and live bases in one batch.
func TestExpiredBaseBatch(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), Workers: 1}
	s := openAt(t, cfg, clock.NewFake())
	mr := newMirror(t, s, 1)
	mr.putTTLW(0, "dead", -1, col(0, "d0"), col(1, "d1"))
	mr.putTTLW(0, "live", time.Hour, col(0, "l0"), col(1, "l1"))
	mr.batchW(0, []string{"dead", "live"}, []value.ColPut{col(0, "d0-new")}, []value.ColPut{col(0, "l0-new")})
	mr.matches(s, "live")
	mr.matches(restart(t, s, cfg), "recovered")
}

// TestCleanDropThenPartialPutRecovery pins the insert-record anchoring
// (wal.OpInsert): a clean drop (TTL sweep or eviction) writes no WAL
// record, so the dropped value's put records survive in the log; the first
// write after the drop executes against nil and must therefore replay as a
// replacement — otherwise recovery merges the dropped value's stale columns
// into the new one, fabricating a state no serial execution produced. This
// is the exact divergence the end-to-end drive caught: live col0-only,
// recovered col0+stale columns.
func TestCleanDropThenPartialPutRecovery(t *testing.T) {
	for _, drop := range []string{"sweep", "evict"} {
		t.Run(drop, func(t *testing.T) {
			cfg := Config{Dir: t.TempDir(), Workers: 2, MaxBytes: 1 << 20}
			s := openAt(t, cfg, clock.NewFake())
			mr := newMirror(t, s, 2)
			ttl := time.Duration(-1) // already lapsed
			if drop == "evict" {
				ttl = time.Hour
			}
			mr.putTTLW(0, "k", ttl, col(0, "old0"), col(1, "stale-secret"), col(5, "stale-tail"))
			if drop == "sweep" {
				s.cacheMaintain() // physically removes the lapsed value
			} else if !s.evictKey([]byte("k")) {
				t.Fatal("evict failed")
			}
			if _, ok := s.tree.Get([]byte("k")); ok {
				t.Fatal("key not dropped")
			}
			mr.evict("k")
			mr.putW(1, "k", col(0, "fresh")) // the first write after the drop: one column
			mr.matches(s, "live")
			mr.matches(restart(t, s, cfg), "recovered")
		})
	}
}

// TestCleanDropThenBatchPutRecovery is the batched-write variant: the batch
// mixes a post-drop insert with a plain update, and recovery must keep the
// insert a replacement and the update a merge.
func TestCleanDropThenBatchPutRecovery(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), Workers: 1, MaxBytes: 1 << 20}
	s := openAt(t, cfg, clock.NewFake())
	mr := newMirror(t, s, 1)
	mr.putW(0, "dropped", col(0, "a0"), col(3, "a3"))
	mr.putW(0, "kept", col(0, "b0"), col(1, "b1"))
	if !s.evictKey([]byte("dropped")) {
		t.Fatal("evict failed")
	}
	mr.evict("dropped")
	mr.batchW(0, []string{"dropped", "kept"}, []value.ColPut{col(0, "new0")}, []value.ColPut{col(0, "b0-new")})
	mr.matches(s, "live")
	mr.matches(restart(t, s, cfg), "recovered")
}

// TestCasPutTreatsExpiredAsAbsent pins the CAS protocol over lazy expiry:
// reads report an expired key absent, so create-if-absent (expect 0) must
// succeed over it — not conflict forever on a version no read can observe —
// and a stale expect equal to the dead value's version must fail. The
// model says which CAS applies and what a conflict reports.
func TestCasPutTreatsExpiredAsAbsent(t *testing.T) {
	s := openAt(t, Config{}, clock.NewFake())
	mr := newMirror(t, s, 1)
	deadVer := mr.putTTLW(0, "k", -1, col(0, "old"))
	mr.casW(0, "k", deadVer, col(0, "x")) // the dead version is not CASable
	mr.casW(0, "k", 5)                    // the conflict reports version 0
	if ver, _ := mr.casW(0, "k", 0, col(0, "new")); ver <= deadVer {
		t.Fatalf("new version %d not above the dead value's %d", ver, deadVer)
	}
}

// TestTouchRecordStandsAlone pins Touch's column-complete logging: even if
// the log holding the key's original put vanishes wholesale (ROADMAP's
// vanished-log hole, reproduced by TestPartialColumnReplayHole for
// partial-column puts), the touch record alone rebuilds the full value —
// Touch must not widen that hole.
func TestTouchRecordStandsAlone(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Workers: 2, SyncWrites: true}
	s := openAt(t, cfg, clock.NewFake())
	mr := newMirror(t, s, 2)
	mr.putW(0, "k", col(0, "c0"), col(1, "c1"))
	mr.touchW(1, "k", time.Hour) // different worker → different log
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Worker 0's log (holding the original put) vanishes wholesale.
	files, err := wal.ListLogFilesFS(vfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f.Worker == 0 {
			if err := os.Remove(f.Path); err != nil {
				t.Fatal(err)
			}
		}
	}
	r := openAt(t, cfg, s.wall)
	mr.matches(r, "the touch record alone") // both columns, and the touch's expiry
}
