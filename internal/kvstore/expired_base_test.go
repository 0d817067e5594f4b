package kvstore

import (
	"os"
	"testing"
	"time"

	"repro/internal/value"
	"repro/internal/wal"
)

// TestExpiredBaseNotResurrected pins the write-side half of lazy expiry: a
// put over a lazily-expired value builds on an absent base, so a partial-
// column put must not revive the dead value's other columns — in memory and
// across recovery (the implicit remove is logged ahead of the put).
func TestExpiredBaseNotResurrected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Workers: 1, MaintainEvery: -1, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ss := sessions(t, s, 1)[0]
	past := nowNanos() - 1
	ss.PutTTL([]byte("k"), []value.ColPut{
		{Col: 0, Data: []byte("col0-old")},
		{Col: 1, Data: []byte("col1-secret")},
	}, past)
	// The key reads as absent; a partial put of column 0 lands on it.
	if _, ok := ss.GetValue([]byte("k")); ok {
		t.Fatal("expired key visible")
	}
	ss.Put([]byte("k"), []value.ColPut{{Col: 0, Data: []byte("col0-new")}})

	check := func(st *Store, label string) {
		t.Helper()
		ss := st.Session(0)
		defer ss.Close()
		got, ok := ss.GetValue([]byte("k"))
		cols := got.Cols()
		if !ok {
			t.Fatalf("%s: key missing", label)
		}
		if len(cols) != 1 || string(cols[0]) != "col0-new" {
			t.Fatalf("%s: got %q, want only col0-new (dead col1 must not resurrect)", label, cols)
		}
		v, _ := st.Tree().Get([]byte("k"))
		if v.ExpiresAt() != 0 {
			t.Fatalf("%s: plain put kept the dead value's expiry %d", label, v.ExpiresAt())
		}
	}
	check(s, "live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Config{Dir: dir, Workers: 1, MaintainEvery: -1, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	check(r, "recovered")
}

// TestExpiredBaseBatch is TestExpiredBaseNotResurrected through the batched
// put path, mixing expired and live bases in one batch.
func TestExpiredBaseBatch(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Workers: 1, MaintainEvery: -1, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ss := sessions(t, s, 1)[0]
	past, future := nowNanos()-1, nowNanos()+uint64(time.Hour)
	ss.PutTTL([]byte("dead"), []value.ColPut{
		{Col: 0, Data: []byte("d0")}, {Col: 1, Data: []byte("d1")},
	}, past)
	ss.PutTTL([]byte("live"), []value.ColPut{
		{Col: 0, Data: []byte("l0")}, {Col: 1, Data: []byte("l1")},
	}, future)
	keys := [][]byte{[]byte("dead"), []byte("live")}
	puts := [][]value.ColPut{
		{{Col: 0, Data: []byte("d0-new")}},
		{{Col: 0, Data: []byte("l0-new")}},
	}
	ss.PutBatchInto(keys, puts)

	check := func(st *Store, label string) {
		t.Helper()
		ss := st.Session(0)
		defer ss.Close()
		got, ok := ss.GetValue([]byte("dead"))
		cols := got.Cols()
		if !ok || len(cols) != 1 || string(cols[0]) != "d0-new" {
			t.Fatalf("%s: dead-base key: %q ok=%v, want only d0-new", label, cols, ok)
		}
		got, ok = ss.GetValue([]byte("live"))
		cols = got.Cols()
		if !ok || len(cols) != 2 || string(cols[0]) != "l0-new" || string(cols[1]) != "l1" {
			t.Fatalf("%s: live-base key: %q ok=%v, want [l0-new l1]", label, cols, ok)
		}
	}
	check(s, "live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Config{Dir: dir, Workers: 1, MaintainEvery: -1, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	check(r, "recovered")
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
			dir := t.TempDir()
			s, err := Open(Config{Dir: dir, Workers: 2, MaintainEvery: -1, FlushInterval: time.Hour, MaxBytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			ss := sessions(t, s, 2)
			exp := nowNanos() - 1 // already lapsed
			if drop == "evict" {
				exp = nowNanos() + uint64(time.Hour)
			}
			ss[0].PutTTL([]byte("k"), []value.ColPut{
				{Col: 0, Data: []byte("old0")},
				{Col: 1, Data: []byte("stale-secret")},
				{Col: 5, Data: []byte("stale-tail")},
			}, exp)
			switch drop {
			case "sweep":
				s.cacheMaintain() // physically removes the lapsed value
			case "evict":
				if !s.evictKey([]byte("k")) {
					t.Fatal("evict failed")
				}
			}
			if _, ok := s.tree.Get([]byte("k")); ok {
				t.Fatal("key not dropped")
			}
			// The first write after the drop: a partial, single-column put.
			ver := ss[1].Put([]byte("k"), []value.ColPut{{Col: 0, Data: []byte("fresh")}})
			check := func(st *Store, label string) {
				t.Helper()
				ss := st.Session(0)
				defer ss.Close()
				got, ok := ss.GetValue([]byte("k"))
				cols := got.Cols()
				if !ok || len(cols) != 1 || string(cols[0]) != "fresh" {
					t.Fatalf("%s: got %q ok=%v, want exactly [fresh] (no stale columns)", label, cols, ok)
				}
				v, _ := st.Tree().Get([]byte("k"))
				if v.Version() != ver {
					t.Fatalf("%s: version %d, want %d", label, v.Version(), ver)
				}
			}
			check(s, "live")
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := Open(Config{Dir: dir, Workers: 2, MaintainEvery: -1, FlushInterval: time.Hour, MaxBytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			check(r, "recovered")
		})
	}
}

// TestCleanDropThenBatchPutRecovery is the batched-write variant: the batch
// mixes a post-drop insert with a plain update, and recovery must keep the
// insert a replacement and the update a merge.
func TestCleanDropThenBatchPutRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Workers: 1, MaintainEvery: -1, FlushInterval: time.Hour, MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ss := sessions(t, s, 1)[0]
	ss.Put([]byte("dropped"), []value.ColPut{
		{Col: 0, Data: []byte("a0")}, {Col: 3, Data: []byte("a3")},
	})
	ss.Put([]byte("kept"), []value.ColPut{
		{Col: 0, Data: []byte("b0")}, {Col: 1, Data: []byte("b1")},
	})
	if !s.evictKey([]byte("dropped")) {
		t.Fatal("evict failed")
	}
	ss.PutBatchInto([][]byte{[]byte("dropped"), []byte("kept")}, [][]value.ColPut{
		{{Col: 0, Data: []byte("new0")}},
		{{Col: 0, Data: []byte("b0-new")}},
	})
	check := func(st *Store, label string) {
		t.Helper()
		ss := st.Session(0)
		defer ss.Close()
		got, ok := ss.GetValue([]byte("dropped"))
		cols := got.Cols()
		if !ok || len(cols) != 1 || string(cols[0]) != "new0" {
			t.Fatalf("%s: dropped key %q ok=%v, want exactly [new0]", label, cols, ok)
		}
		got, ok = ss.GetValue([]byte("kept"))
		cols = got.Cols()
		if !ok || len(cols) != 2 || string(cols[0]) != "b0-new" || string(cols[1]) != "b1" {
			t.Fatalf("%s: kept key %q ok=%v, want [b0-new b1]", label, cols, ok)
		}
	}
	check(s, "live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Config{Dir: dir, Workers: 1, MaintainEvery: -1, FlushInterval: time.Hour, MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	check(r, "recovered")
}

// TestCasPutTreatsExpiredAsAbsent pins the CAS protocol over lazy expiry:
// reads report an expired key absent, so create-if-absent (expect 0) must
// succeed over it — not conflict forever on a version no read can observe —
// and a stale expect equal to the dead value's version must fail.
func TestCasPutTreatsExpiredAsAbsent(t *testing.T) {
	s, err := Open(Config{MaintainEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	ss := sessions(t, s, 1)[0]
	defer s.Close()
	deadVer := ss.PutTTL([]byte("k"), []value.ColPut{{Col: 0, Data: []byte("old")}}, nowNanos()-1)

	// The dead version is not CASable — the key is "absent".
	if _, ok := ss.CasPut([]byte("k"), deadVer, []value.ColPut{{Col: 0, Data: []byte("x")}}); ok {
		t.Fatal("CAS against a dead value's version succeeded")
	}
	// The conflict reports current version 0 (absent), so the documented
	// re-read-and-retry protocol converges on expect 0.
	cur, ok := ss.CasPut([]byte("k"), 5, nil)
	if ok || cur != 0 {
		t.Fatalf("conflict over expired key reported version %d, want 0", cur)
	}
	ver, ok := ss.CasPut([]byte("k"), 0, []value.ColPut{{Col: 0, Data: []byte("new")}})
	if !ok {
		t.Fatal("create-if-absent over an expired key failed")
	}
	if ver <= deadVer {
		t.Fatalf("new version %d not above the dead value's %d", ver, deadVer)
	}
	got, ok := ss.GetValue([]byte("k"))
	cols := got.Cols()
	if !ok || len(cols) != 1 || string(cols[0]) != "new" {
		t.Fatalf("after CAS: %q ok=%v", cols, ok)
	}
}

// TestTouchRecordStandsAlone pins Touch's column-complete logging: even if
// the log holding the key's original put vanishes wholesale (ROADMAP's
// vanished-log hole, reproduced by TestPartialColumnReplayHole for
// partial-column puts), the touch record alone rebuilds the full value —
// Touch must not widen that hole.
func TestTouchRecordStandsAlone(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Workers: 2, SyncWrites: true, FlushInterval: time.Hour, MaintainEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	ss := sessions(t, s, 2)
	future := nowNanos() + uint64(time.Hour)
	ss[0].Put([]byte("k"), []value.ColPut{
		{Col: 0, Data: []byte("c0")}, {Col: 1, Data: []byte("c1")},
	})
	if _, ok := ss[1].Touch([]byte("k"), future); !ok { // different worker → different log
		t.Fatal("touch failed")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Worker 0's log (holding the original put) vanishes wholesale.
	files, err := wal.ListLogFiles(dir)
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
	r, err := Open(Config{Dir: dir, Workers: 2, SyncWrites: true, FlushInterval: time.Hour, MaintainEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	rs := sessions(t, r, 1)[0]
	defer r.Close()
	got, ok := rs.GetValue([]byte("k"))
	cols := got.Cols()
	if !ok || len(cols) != 2 || string(cols[0]) != "c0" || string(cols[1]) != "c1" {
		t.Fatalf("touch record did not stand alone: %q ok=%v, want [c0 c1]", cols, ok)
	}
	v, _ := r.Tree().Get([]byte("k"))
	if v.ExpiresAt() != future {
		t.Fatalf("recovered expiry %d, want %d", v.ExpiresAt(), future)
	}
}
