package kvstore

import (
	"testing"
	"time"

	"repro/internal/value"
	"repro/internal/wal"
)

// TestWriteKernelExpiryOnce pins the step's single expiry decision with a
// clock that lapses the base between two reads: live at the version compare,
// dead by the time the value is built. A write that asks twice passes the
// compare as live and then builds on an absent base — "ok", logged as an
// insert, the base's other columns gone. The outcome must be one a single
// instant could have produced: a conflict, or a linked put over the live
// base.
func TestWriteKernelExpiryOnce(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Workers: 1, MaintainEvery: -1, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("k")
	deadline := nowNanos() + uint64(time.Hour)
	baseVer := s.PutTTL(0, key, []value.ColPut{{Col: 0, Data: []byte("b0")}, {Col: 1, Data: []byte("b1")}}, deadline)
	reads := 0
	s.now = func() int64 {
		if reads++; reads == 1 {
			return int64(deadline) - 1
		}
		return int64(deadline) + 1
	}
	ver, ok := s.CasPut(0, key, baseVer, col0("n0"))
	if reads != 1 {
		t.Errorf("the step read the clock %d times, want once", reads)
	}
	after := see(s, key) // the new value carries no expiry, so the wall clock sees it
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		if ver != 0 || after.found {
			t.Fatalf("conflict must report the key absent and leave it so: ver=%d %v", ver, after)
		}
		return
	}
	if want := (visible{true, "n0|b1", 0, ver}); after != want {
		t.Fatalf("ok over a base live at the compare: %v, want %v (the base's columns kept)", after, want)
	}
	res, err := wal.RecoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Records {
		if r.TS == ver && (r.Op != wal.OpPut || r.Prev != baseVer || fmtPuts(r.Puts) != "0=n0") {
			t.Fatalf("record op=%d prev=%d puts=%q, want a put linked to %d carrying 0=n0", r.Op, r.Prev, fmtPuts(r.Puts), baseVer)
		}
	}
}

// TestWriteKernelClockReads pins when the step consults the clock at all:
// never over an absent base or one without an expiry (TTL-free workloads
// pay a header load and a branch), exactly once over one that has.
func TestWriteKernelClockReads(t *testing.T) {
	s, err := Open(Config{MaintainEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reads := 0
	s.now = func() int64 { reads++; return time.Now().UnixNano() }
	future := nowNanos() + uint64(time.Hour)
	plain, ttl, absent := []byte("plain"), []byte("ttl"), []byte("absent")
	reset := func() {
		s.Put(0, plain, col0("p"))
		s.PutTTL(0, ttl, col0("t"), future)
		s.Remove(0, absent)
		reads = 0
	}
	entries := map[string]func(key []byte){
		"Put":    func(key []byte) { s.Put(0, key, col0("x")) },
		"PutTTL": func(key []byte) { s.PutTTL(0, key, col0("x"), future) },
		"Touch":  func(key []byte) { s.Touch(0, key, future) },
		"CasPut": func(key []byte) { s.CasPut(0, key, 1, col0("x")) },
		"installLoaded": func(key []byte) {
			s.installLoaded(0, key, [][]byte{[]byte("x")}, future)
		},
		"PutBatchInto": func(key []byte) {
			var sc BatchScratch
			s.PutBatchInto(0, [][]byte{key}, [][]value.ColPut{col0("x")}, &sc)
		},
	}
	for name, run := range entries {
		for _, c := range []struct {
			key  []byte
			want int
		}{{absent, 0}, {plain, 0}, {ttl, 1}} {
			reset()
			run(c.key)
			if reads != c.want {
				t.Errorf("%s over %q: %d clock reads, want %d", name, c.key, reads, c.want)
			}
		}
	}
}
