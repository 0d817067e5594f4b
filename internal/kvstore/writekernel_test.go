package kvstore

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/model"
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
	wall := &readClock{Fake: clock.NewFake()}
	s := openAt(t, Config{Dir: dir, Workers: 1}, wall)
	ss := sessions(s, 1)[0]
	key := []byte("k")
	// 1 ns out, so no maintenance tick or flush falls due on the way.
	deadline := uint64(wall.Fake.Now().Add(1).UnixNano())
	baseVer := ss.PutTTL(key, []value.ColPut{{Col: 0, Data: []byte("b0")}, {Col: 1, Data: []byte("b1")}}, 1)
	wall.reads, wall.step = 0, 2 // the first read sees deadline-1, a second deadline+1
	ver, ok := ss.CasPut(key, baseVer, col0("n0"))
	if wall.reads != 1 {
		t.Errorf("the step read the clock %d times, want once", wall.reads)
	}
	after, found := ss.GetValue(key) // the new value carries no expiry, so the wall clock sees it
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		if ver != 0 || found {
			t.Fatalf("conflict must report the key absent and leave it so: ver=%d %v", ver, after)
		}
		return
	}
	// The instant the step read: the base live at the compare.
	ref := model.New()
	ref.PutTTL("k", baseVer, 0, deadline, model.ColPut{Col: 0, Data: []byte("b0")}, model.ColPut{Col: 1, Data: []byte("b1")})
	ref.CasPut("k", baseVer, ver, deadline-1, model.ColPut{Col: 0, Data: []byte("n0")})
	if want, _ := ref.Get("k", deadline-1); !found || !stateOf(after).Equal(want) {
		t.Fatalf("ok over a base live at the compare: %v, the model %v (the base's columns kept)", stateOf(after), want)
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
// pay a header load and a branch), exactly once over one that has. PutTTL
// and Touch read it once more, before the step, to resolve their TTL into a
// deadline.
func TestWriteKernelClockReads(t *testing.T) {
	wall := &readClock{Fake: clock.NewFake()}
	s := openAt(t, Config{}, wall)
	ss := sessions(s, 1)[0]
	future := uint64(wall.Fake.Now().Add(time.Hour).UnixNano())
	own := map[string]int{"PutTTL": 1, "Touch": 1}
	plain, ttl, absent := []byte("plain"), []byte("ttl"), []byte("absent")
	reset := func() {
		ss.Put(plain, col0("p"))
		ss.PutTTL(ttl, col0("t"), time.Hour)
		ss.Remove(absent)
		wall.reads = 0
	}
	entries := map[string]func(key []byte){
		"Put":    func(key []byte) { ss.Put(key, col0("x")) },
		"PutTTL": func(key []byte) { ss.PutTTL(key, col0("x"), time.Hour) },
		"Touch":  func(key []byte) { ss.Touch(key, time.Hour) },
		"CasPut": func(key []byte) { ss.CasPut(key, 1, col0("x")) },
		"installLoaded": func(key []byte) {
			s.Session(0).installLoaded(key, [][]byte{[]byte("x")}, future)
		},
		"PutBatchInto": func(key []byte) {
			ss.PutBatchInto([][]byte{key}, [][]value.ColPut{col0("x")})
		},
	}
	for name, run := range entries {
		for _, c := range []struct {
			key  []byte
			want int
		}{{absent, 0}, {plain, 0}, {ttl, 1}} {
			reset()
			run(c.key)
			if want := c.want + own[name]; wall.reads != want {
				t.Errorf("%s over %q: %d clock reads, want %d", name, c.key, wall.reads, want)
			}
		}
	}
}

// readClock is a fake wall clock that counts its Now reads and moves on by
// step after each, for tests run on one goroutine.
type readClock struct {
	*clock.Fake
	step  time.Duration
	reads int
}

func (c *readClock) Now() time.Time {
	c.reads++
	now := c.Fake.Now()
	c.Advance(c.step)
	return now
}
