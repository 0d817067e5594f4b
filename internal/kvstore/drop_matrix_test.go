package kvstore

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/clock"
	"repro/internal/value"
	"repro/internal/wal"
)

// Beside matrixBase's absent, live and expired bases, a drop matrix cell may
// start from a live value carrying a future expiry, or from a value whose
// expiry lapsed so recently that it is still the read-through tier's
// stale-if-error reserve (see sweepExpired).
const (
	liveTTLBase matrixBase = expiredBase + 1 + iota
	staleReserveBase
)

func dropBaseName(b matrixBase) string {
	switch b {
	case sameWorkerBase:
		return "live"
	case liveTTLBase:
		return "live-ttl"
	case staleReserveBase:
		return "stale-reserve"
	}
	return b.String()
}

// dropCell is one (drop path, base) pair and how the store must carry it
// out. The drop goes through worker 0 (the maintenance context's worker for
// evictKey and the sweep); the base is one column "b" put by worker 0. What
// the drop reports — Remove's and evictKey's result, for the sweep that it
// counted an expiration — and what a reader sees afterwards are the
// reference model's answers to the same inputs.
type dropCell struct {
	entry  string
	base   matrixBase
	kept   bool   // the value is still physically in the tree afterwards
	logged bool   // exactly one OpRemove record (false: no record at all)
	queued string // the write-behind queue afterwards: "", "tombstone" or "spill"
}

var dropCells = []dropCell{
	{"Remove", absentBase, false, false, ""},
	{"Remove", sameWorkerBase, false, true, "tombstone"},
	{"Remove", liveTTLBase, false, true, "tombstone"},
	{"Remove", expiredBase, false, true, "tombstone"},

	{"evictKey", absentBase, false, false, ""},
	{"evictKey", sameWorkerBase, false, false, "spill"},
	{"evictKey", liveTTLBase, false, false, "spill"},
	{"evictKey", expiredBase, false, false, ""},

	{"sweep", absentBase, false, false, ""},
	{"sweep", sameWorkerBase, true, false, ""},
	{"sweep", liveTTLBase, true, false, ""},
	{"sweep", expiredBase, false, false, ""},
	{"sweep", staleReserveBase, true, false, ""},
}

// TestDropMatrix pins every way a value leaves the tree — a session's
// Remove, the eviction callback and the TTL sweep — against every kind of
// value it may find: the result reported, what a reader sees, the log
// records, the write-behind queue, the cache counters and byte accounting,
// that a re-insert on another worker draws a version above both the dropped
// value and the remove, and that a restart rebuilds what the live store
// served with no broken chain.
func TestDropMatrix(t *testing.T) {
	for _, c := range dropCells {
		t.Run(c.entry+"/"+dropBaseName(c.base), func(t *testing.T) { runDropCell(t, c) })
	}
}

func runDropCell(t *testing.T, c dropCell) {
	dir := t.TempDir()
	// The backend hangs, so whatever the drop queues stays queued; MaxStale
	// arms the sweep's stale-if-error horizon.
	m := backend.NewMock(0)
	release := m.Hang()
	defer release()
	cfg := Config{Dir: dir, Workers: 2, Backend: m, WriteBehind: 16, MaxStale: time.Minute}
	s := openAt(t, cfg, clock.NewFake())
	mr := newMirror(t, s, 2)
	key, b := []byte("k"), col(0, "b")
	var baseVer uint64
	switch c.base {
	case sameWorkerBase:
		baseVer = mr.putW(0, "k", b)
	case liveTTLBase:
		baseVer = mr.putTTLW(0, "k", time.Hour, b)
	case expiredBase:
		baseVer = mr.putTTLW(0, "k", -time.Hour, b)
	case staleReserveBase:
		baseVer = mr.putTTLW(0, "k", -1, b)
	}
	stats0 := s.CacheStats()

	// What the drop reports, and what a reader sees afterwards, is the
	// model's answer; the sweep's report is the expirations it counted. The
	// backend's stale-if-error window moves the sweep's horizon back.
	switch c.entry {
	case "Remove":
		mr.removeW(0, "k")
	case "evictKey":
		if got, want := s.evictKey(key), mr.ref.Evict("k"); got != want {
			t.Errorf("evictKey reported %v, the model %v", got, want)
		}
	case "sweep":
		s.cacheMaintain()
		if got, want := s.CacheStats().Expirations-stats0.Expirations, mr.ref.Sweep(nanosIn(s, -cfg.MaxStale)); got != int64(want) {
			t.Errorf("the sweep counted %d expirations, the model %d", got, want)
		}
	default:
		t.Fatalf("unknown entry %q", c.entry)
	}
	mr.readBack("drop", 0, "k")
	if _, kept := s.tree.Get(key); kept != c.kept {
		t.Errorf("value kept in the tree = %v, want %v", kept, c.kept)
	}
	if got, want := s.CacheStats().BytesLive, accountedBytes(s); got != want {
		t.Errorf("after the drop BytesLive = %d, the tree holds %d", got, want)
	}
	// The policy counts its own evictions; the callback a test calls
	// directly counts none, and nothing but the sweep counts expirations.
	if stats := s.CacheStats(); stats.Evictions != stats0.Evictions || c.entry != "sweep" && stats.Expirations != stats0.Expirations {
		t.Errorf("evictions +%d, expirations +%d", stats.Evictions-stats0.Evictions, stats.Expirations-stats0.Expirations)
	}
	queued := ""
	if v, ok := s.wb.peek(key); ok {
		queued = "tombstone"
		if v != nil {
			queued = "spill"
			if v.Version() != baseVer {
				t.Errorf("spilled version %d, want the dropped value's %d", v.Version(), baseVer)
			}
		}
	}
	wantDepth := 0
	if c.queued != "" {
		wantDepth = 1
	}
	if queued != c.queued || s.wb.depth() != wantDepth {
		t.Errorf("write-behind queue: %q (depth %d), want %q", queued, s.wb.depth(), c.queued)
	}

	// A re-insert through a worker whose clock never saw the key: the model
	// refuses a version not above the dropped value's.
	insVer := mr.putW(1, "k", col(0, "r"))
	if got, want := s.CacheStats().BytesLive, accountedBytes(s); got != want {
		t.Errorf("after the re-insert BytesLive = %d, the tree holds %d", got, want)
	}
	release()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The log: the drop's records are those above the base other than the
	// re-insert's.
	res, err := wal.RecoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var dropRecs []wal.Record
	for _, r := range res.Records {
		if r.TS > baseVer && r.TS != insVer {
			dropRecs = append(dropRecs, r)
		}
	}
	if !c.logged {
		if len(dropRecs) != 0 {
			t.Errorf("a clean drop logged %d records: %+v", len(dropRecs), dropRecs)
		}
	} else if len(dropRecs) != 1 || dropRecs[0].Op != wal.OpRemove || string(dropRecs[0].Key) != "k" || dropRecs[0].Worker != 0 {
		t.Errorf("drop records %+v, want one OpRemove of k by worker 0", dropRecs)
	} else if ts := dropRecs[0].TS; insVer <= ts {
		t.Errorf("re-insert version %d not above the remove's timestamp %d", insVer, ts)
	}

	// Recovery rebuilds what readers saw.
	r := openAt(t, Config{Dir: dir, Workers: 2}, clock.NewFake())
	if st := r.RecoveryStats(); st.BrokenChains != 0 || st.MissingLogs != 0 {
		t.Errorf("recovery stats %+v, want a clean replay", st)
	}
	mr.matches(r, "recovered")
	if got, want := r.CacheStats().BytesLive, accountedBytes(r); got != want {
		t.Errorf("after the reopen BytesLive = %d, the tree holds %d", got, want)
	}
}

// TestDropRaces races every drop path at once: two sessions put, put with
// short TTLs and remove over 64 keys while a byte budget far below the data
// keeps eviction busy, and each advances the clock a maintenance tick every
// 64 operations, which lapses those TTLs and runs the sweep.
// Once quiet, the accounted bytes must equal what the tree holds; after a
// restart every key present at Close must be back at the same version, with
// no broken chain.
func TestDropRaces(t *testing.T) {
	dir := t.TempDir()
	wall := clock.NewFake()
	s := openAt(t, Config{Dir: dir, Workers: 2, MaxBytes: 1 << 10}, wall)
	const keys, minOps = 64, 4000
	deadline := time.Now().Add(10 * time.Second)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ss := s.Session(w)
			rng := rand.New(rand.NewSource(int64(w)))
			// Run until both background drops have happened, so every path
			// raced the writers at least once.
			for i := 0; i < minOps || s.CacheStats().Evictions == 0 || s.CacheStats().Expirations == 0; i++ {
				if time.Now().After(deadline) {
					t.Errorf("worker %d: no eviction or no expiration after %d ops: %+v", w, i, s.CacheStats())
					return
				}
				if i%64 == 0 {
					wall.Advance(maintainTick)
				}
				k := []byte(fmt.Sprintf("race-%02d", rng.Intn(keys)))
				switch op := rng.Intn(4); op {
				case 0:
					ss.Remove(k)
				case 1:
					ss.PutTTL(k, []value.ColPut{{Col: 0, Data: k}}, time.Duration(rng.Intn(2000))*time.Microsecond)
				default:
					ss.Put(k, []value.ColPut{{Col: op, Data: k}})
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := s.CacheStats().BytesLive, accountedBytes(s); got != want {
		t.Errorf("BytesLive = %d, the tree holds %d", got, want)
	}
	atClose := map[string]uint64{}
	s.tree.Scan(nil, func(k []byte, v *value.Value) bool {
		atClose[string(k)] = v.Version()
		return true
	})

	// Reopened without a budget, so nothing the bound would evict is lost.
	r := openAt(t, Config{Dir: dir, Workers: 2}, clock.NewFake())
	if st := r.RecoveryStats(); st.BrokenChains != 0 || st.MissingLogs != 0 {
		t.Errorf("recovery stats %+v, want a clean replay", st)
	}
	for k, ver := range atClose {
		if v, ok := r.tree.Get([]byte(k)); !ok || v.Version() != ver {
			t.Errorf("key %s: recovered version %d (present %v), at Close %d", k, v.Version(), ok, ver)
		}
	}
}
