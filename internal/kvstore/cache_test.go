package kvstore

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/value"
	"repro/internal/workload"
)

// putSimpleTTL stores data as column 0 of key with an expiry deadline.
func putSimpleTTL(ss *Session, key, data []byte, expiresAt uint64) uint64 {
	return ss.PutTTL(key, []value.ColPut{{Col: 0, Data: data}}, expiresAt)
}

// TestTTLLazyExpiry pins the read-side TTL semantics: a lapsed value reads
// as absent on every path (GetValue, GetBatchInto, GetRangeInto) before any
// sweep runs, a TTL-free put clears the expiry, and Touch
// extends and declines correctly.
func TestTTLLazyExpiry(t *testing.T) {
	s := openAt(t, Config{}, clock.NewFake())
	mr := newMirror(t, s, 1)
	sess := mr.sess[0]

	past := nanosIn(s, -time.Second)
	future := nanosIn(s, time.Hour)
	mr.putTTLW(0, "dead", past, col(0, "x"))
	mr.putTTLW(0, "live", future, col(0, "y"))
	mr.putW(0, "plain", col(0, "z"))
	if _, found := sess.GetBatchInto([][]byte{[]byte("dead"), []byte("live")}); found[0] || !found[1] {
		t.Fatalf("batched lookup: dead=%v live=%v, want false/true", found[0], found[1])
	}
	var sc RangeScratch
	for _, p := range sess.GetRangeInto(nil, 10, nil, &sc) {
		if string(p.Key) == "dead" {
			t.Fatal("expired key visible via GetRangeInto")
		}
	}

	// A plain put over a TTL key clears the expiry, and Touch extends live
	// keys and declines absent and expired ones: the model says so, and
	// the mirror holds the store to it.
	mr.putTTLW(0, "cleared", future, col(0, "a"))
	mr.putW(0, "cleared", col(0, "b"))
	mr.touchW(0, "live", nanosIn(s, 2*time.Hour))
	mr.touchW(0, "dead", future)
	mr.touchW(0, "absent", future)

	// Removing an expired key reports "did not exist", like every read path
	// (the physical cleanup still happens).
	mr.putTTLW(0, "dead-rm", past, col(0, "x"))
	mr.removeW(0, "dead-rm")
	if _, ok := s.Tree().Get([]byte("dead-rm")); ok {
		t.Fatal("remove of an expired key left it in the tree")
	}
	mr.removeW(0, "plain")
}

// TestTTLSweepRemoves verifies the background sweep physically removes
// lapsed keys (clean drop: Len shrinks, expirations counted) while leaving
// live and TTL-free keys alone, across multiple incremental batches.
func TestTTLSweepRemoves(t *testing.T) {
	s := openAt(t, Config{}, clock.NewFake())
	sess := s.Session(0)
	past := nanosIn(s, -1)
	future := nanosIn(s, time.Hour)
	const n = sweepBatchKeys + 100 // force more than one sweep batch
	for i := 0; i < n; i++ {
		putSimpleTTL(sess, []byte(fmt.Sprintf("dead-%05d", i)), []byte("x"), past)
	}
	putSimpleTTL(sess, []byte("live"), []byte("y"), future)
	sess.PutSimple([]byte("plain"), []byte("z"))

	// One maintenance pass suffices: the adaptive sweep chains batches while
	// they come back dense with expired keys (catch-up under backlog).
	s.cacheMaintain()
	if got := s.Len(); got != 2 {
		t.Fatalf("after one adaptive sweep pass Len = %d, want 2 (live + plain)", got)
	}
	if exp := s.CacheStats().Expirations; exp != n {
		t.Fatalf("expirations = %d, want %d", exp, n)
	}
	if _, ok := sess.GetValue([]byte("live")); !ok {
		t.Fatal("sweep removed a live key")
	}
	if s.CacheStats().BytesLive <= 0 {
		t.Fatal("accounting went non-positive with live keys present")
	}
}

// TestTTLSurvivesRecovery verifies the expiry rides the WAL (OpPutTTL) and
// checkpoints: after a restart a live TTL key keeps its deadline, an
// already-expired key stays invisible, and a checkpoint written after the
// expiry omits the dead key entirely.
func TestTTLSurvivesRecovery(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), Workers: 2}
	s := openAt(t, cfg, clock.NewFake())
	mr := newMirror(t, s, 2)
	future := nanosIn(s, time.Hour)
	mr.putTTLW(1, "live", future, col(0, "y"))
	mr.putTTLW(1, "dead", nanosIn(s, -1), col(0, "x"))
	mr.putW(1, "plain", col(0, "z"))
	mr.touchW(1, "plain", future)

	// Log-only restart: everything replays, expiries intact.
	r := restart(t, s, cfg)
	mr.matches(r, "log-only restart")
	// Checkpoint skips the expired key; restart from it has no trace left.
	if _, _, err := r.CheckpointN(0); err != nil {
		t.Fatal(err)
	}
	r2 := restart(t, r, cfg)
	if _, ok := r2.Tree().Get([]byte("dead")); ok {
		t.Fatal("checkpoint carried an expired key")
	}
	mr.matches(r2, "checkpoint restart")
}

// TestEvictionVersionMonotonic pins the clean-drop ordering rule: a key
// re-inserted after an eviction must draw a version above the evicted
// value's, or log replay would apply the re-insert below the old put's
// version guard and lose it.
func TestEvictionVersionMonotonic(t *testing.T) {
	s := openAt(t, Config{MaxBytes: 1 << 20}, clock.NewFake())
	mr := newMirror(t, s, 1)
	mr.putW(0, "k", col(0, "a"))
	if !s.evictKey([]byte("k")) {
		t.Fatal("evictKey failed on a present key")
	}
	mr.evict("k")
	mr.readBack("evicted", 0, "k")
	mr.putW(0, "k", col(0, "b")) // the model refuses a version not above the evicted one
	if got := s.CacheStats().BytesLive; got <= 0 {
		t.Fatalf("accounting after evict+reinsert = %d, want > 0", got)
	}
}

// TestCacheBoundZipfian is the system half of the acceptance criterion: a
// store bounded at 64 MiB sustains an over-capacity zipfian TTL workload
// with bytes_live never exceeding the bound by more than one eviction
// batch, while the policy records evictions and ghost hits.
func TestCacheBoundZipfian(t *testing.T) {
	const (
		maxBytes = 64 << 20
		valSize  = 4096
		nkeys    = 60_000 // ~234 MiB footprint, 3.7x over budget
		workers  = 2
		opsPer   = 160_000
	)
	wall := clock.NewFake()
	s := openAt(t, Config{Workers: workers, MaxBytes: maxBytes}, wall)

	// One eviction batch is the enforce pass's low-watermark stride plus
	// whatever lands between an overshoot probe and the wakeup; allow the
	// batch (maxBytes/32) plus a probe window of worker puts.
	slack := int64(maxBytes/32 + workers*64*valSize)
	var maxSeen int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := s.Session(w)
			zipf := workload.ZipfKeys(int64(1000+w), nkeys)
			val := make([]byte, valSize)
			future := nanosIn(s, time.Hour)
			for i := 0; i < opsPer; i++ {
				k := zipf.Next()
				if i%4 == 0 {
					putSimpleTTL(sess, k, val, future)
				} else if _, ok := sess.GetValue(k); !ok {
					sess.PutSimple(k, val)
				}
				if i%512 == 0 {
					wall.Advance(maintainTick) // a tick's pass besides the overshoot wake-ups
					live := s.CacheStats().BytesLive
					mu.Lock()
					if live > maxSeen {
						maxSeen = live
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	// The workers are done but the enforcer is not: an overshoot wakes it,
	// and a total read before a pass and a walk made after it disagree.
	// Close stops it and waits for it; the tree and the counters of an
	// in-memory store stay readable.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.CacheStats()
	t.Logf("bytes_live=%d max_seen=%d bound=%d slack=%d evictions=%d ghost_hits=%d expirations=%d admit_drops=%d keys=%d",
		st.BytesLive, maxSeen, int64(maxBytes), slack, st.Evictions, st.GhostHits, st.Expirations, st.AdmitDrops, s.Len())
	if maxSeen > maxBytes+slack {
		t.Fatalf("bytes_live peaked at %d, more than one eviction batch (%d) over the %d bound", maxSeen, slack, int64(maxBytes))
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions under a 3.7x over-capacity workload")
	}
	if st.GhostHits == 0 {
		t.Fatal("no ghost hits under a zipfian workload")
	}
	// The accounted total matches a direct walk of the tree.
	var walked int64
	s.Tree().Scan(nil, func(k []byte, v *value.Value) bool {
		walked += int64(v.Size())
		return true
	})
	if walked != st.BytesLive {
		t.Fatalf("accounting drift: walked %d, accounted %d", walked, st.BytesLive)
	}
}

// TestCacheKeepsZipfHeadResident is cache mode's hit-rate property: the
// bounded store keeps the zipfian head resident. Its yardstick is the trace's
// own offline optimum: a cache that holds k keys and knows the whole trace in
// advance can hit at most the share of gets that go to the k most requested
// keys. A gap to an unbounded run would not do, since that gap grows and
// shrinks with the trace's length.
func TestCacheKeepsZipfHeadResident(t *testing.T) {
	const (
		maxBytes = 4 << 20
		valSize  = 1024
		nkeys    = 20_000 // ~20 MiB footprint, 5x over budget
		ops      = 400_000
		// margin is how far below the optimum the online policy may read.
		// S3-FIFO reads 0.047 below it. With the access feed dropped it
		// reads 0.073 below, and as a plain FIFO (access bits ignored) 0.095.
		margin      = 0.06
		maintainOps = 256
	)
	zipf := workload.ZipfKeys(31, nkeys)
	trace := make([][]byte, ops)
	for i := range trace {
		trace[i] = zipf.Next()
	}

	// The trace advances the clock one maintenance tick every maintainOps
	// operations and waits for the loop's pass, so the passes follow the
	// trace rather than a timer. The cadence keeps each drain within the
	// access ring's 256 slots.
	wall := clock.NewFake()
	s := openAt(t, Config{Workers: 1, MaxBytes: maxBytes}, wall)
	sess := s.Session(0)
	val := make([]byte, valSize)
	future := nanosIn(s, time.Hour)
	gets := make(map[string]int)
	hits := 0
	for i, k := range trace {
		if i%maintainOps == 0 {
			passes := s.obs.Hist(obs.HEvict).Snapshot().Count()
			wall.Advance(maintainTick)
			waitUntil(t, func() bool { return s.obs.Hist(obs.HEvict).Snapshot().Count() > passes })
		}
		if i%10 == 0 {
			putSimpleTTL(sess, k, val, future)
			continue
		}
		gets[string(k)]++
		if _, ok := sess.GetValue(k); ok {
			hits++
		} else {
			sess.PutSimple(k, val)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// k is the budget over the bytes the store accounts for one resident key.
	perKey := s.CacheStats().BytesLive / int64(s.Len())
	k := int(maxBytes / perKey)
	counts := make([]int, 0, len(gets))
	for _, n := range gets {
		counts = append(counts, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	total, head := 0, 0
	for i, n := range counts {
		total += n
		if i < k {
			head += n
		}
	}
	optimum := float64(head) / float64(total)
	rate := float64(hits) / float64(total)
	t.Logf("hit rate %.4f, offline optimum %.4f (k=%d keys of %d accounted bytes)", rate, optimum, k, perKey)
	if rate < optimum-margin {
		t.Fatalf("hit rate %.4f is more than %.2f below the offline optimum %.4f: the zipf head is not resident", rate, margin, optimum)
	}
}

// TestCacheRecoveryReenforcesBound builds an over-budget store (no byte
// budget, so nothing evicts), restarts it in cache mode, and requires the
// bound to hold before Open returns — replay first, then re-enforce.
func TestCacheRecoveryReenforcesBound(t *testing.T) {
	dir := t.TempDir()
	const maxBytes = 1 << 20
	s := openAt(t, Config{Dir: dir, Workers: 1}, clock.NewFake())
	val := make([]byte, 4096)
	ss := s.Session(0)
	for i := 0; i < 1024; i++ { // ~4 MiB, 4x over the reopen budget
		ss.PutSimple([]byte(fmt.Sprintf("key-%05d", i)), val)
	}
	r := restart(t, s, Config{Dir: dir, Workers: 1, MaxBytes: maxBytes})
	st := r.CacheStats()
	if st.BytesLive > maxBytes {
		t.Fatalf("bound not re-enforced after recovery: bytes_live %d > %d", st.BytesLive, maxBytes)
	}
	if st.Evictions == 0 {
		t.Fatal("recovery enforcement recorded no evictions")
	}
	if r.Len() == 0 {
		t.Fatal("recovery evicted everything")
	}
	// Survivors must read back intact.
	found := 0
	r.Tree().Scan(nil, func(k []byte, v *value.Value) bool {
		if len(v.Col(0)) != 4096 {
			t.Fatalf("survivor %q has wrong value length %d", k, len(v.Col(0)))
		}
		found++
		return true
	})
	if found != r.Len() {
		t.Fatalf("scan found %d keys, Len says %d", found, r.Len())
	}
}

// TestCacheModeAllocs pins the hot paths with accounting, admission, and
// access recording all enabled: a put still costs at most one allocation
// (the packed value; ring arenas are amortized), a warmed GetValue with
// AppendCols stays at zero.
func TestCacheModeAllocs(t *testing.T) {
	s := openAt(t, Config{MaxBytes: 1 << 30}, clock.NewFake())
	sess := s.Session(0)
	key := []byte("cache-alloc-key")
	data := []byte("cache-column-data")
	// Warm both admission-ring swap buffers past the measured append volume
	// (the ring double-buffers: each drain swaps in the previously drained
	// slice, so two warmed rounds leave both sides with capacity).
	for round := 0; round < 2; round++ {
		for i := 0; i < 1000; i++ {
			sess.PutSimple(key, data)
		}
		s.cacheMaintain()
	}

	allocs := testing.AllocsPerRun(200, func() {
		sess.PutSimple(key, data)
	})
	if allocs > 1 {
		t.Fatalf("cache-mode PutSimple allocates %.1f times per run, want <= 1", allocs)
	}

	dst := make([][]byte, 0, 4)
	allocs = testing.AllocsPerRun(200, func() {
		v, ok := sess.GetValue(key)
		if !ok {
			t.Fatal("key missing")
		}
		dst = AppendCols(dst[:0], v, nil)
	})
	if allocs != 0 {
		t.Fatalf("cache-mode GetValue+AppendCols allocates %.1f times per run, want 0", allocs)
	}

	// TTL put: same discipline, one packed value.
	s.cacheMaintain() // fresh swap buffer for the next measured block
	future := nanosIn(s, time.Hour)
	allocs = testing.AllocsPerRun(200, func() {
		putSimpleTTL(sess, key, data, future)
	})
	if allocs > 1 {
		t.Fatalf("cache-mode PutTTL allocates %.1f times per run, want <= 1", allocs)
	}
}

// TestCacheReadsFeedThePolicy pins that every read call of the session
// surface notes what it reads for the eviction policy: a key read only
// through GetValue, GetBatchInto, PointBatchInto's gets or GetOrLoad's hit
// path outlives an unread key of the same size, put just after it, across an
// eviction pass. Were the read not noted, the older key would be the small
// queue's first victim.
func TestCacheReadsFeedThePolicy(t *testing.T) {
	val := make([]byte, 1000)
	for name, readThrough := range map[string]func(ss *Session, key []byte) bool{
		"GetValue": func(ss *Session, key []byte) bool {
			_, ok := ss.GetValue(key)
			return ok
		},
		"GetBatchInto": func(ss *Session, key []byte) bool {
			_, found := ss.GetBatchInto([][]byte{key})
			return found[0]
		},
		"PointBatchInto": func(ss *Session, key []byte) bool {
			_, found, _ := ss.PointBatchInto([][]byte{key, []byte("other")}, []bool{false, true}, [][]value.ColPut{nil, {{Col: 0, Data: val}}})
			return found[0]
		},
		"GetOrLoad": func(ss *Session, key []byte) bool {
			v, _, err := ss.GetOrLoad(context.Background(), key)
			return v != nil && err == nil
		},
	} {
		t.Run(name, func(t *testing.T) {
			s := openAt(t, Config{MaxBytes: 32 << 10}, clock.NewFake())
			ss := sessions(s, 1)[0]
			read, unread := []byte("read"), []byte("unread")
			ss.PutSimple(read, val)
			ss.PutSimple(unread, val)
			s.cacheMaintain() // admits both to the small queue, read first
			if !readThrough(ss, read) {
				t.Fatal("the read missed")
			}
			s.cacheMaintain() // drains the access ring
			// Past the budget, and fewer puts than an overshoot probe waits for.
			for i := 0; i < 40; i++ {
				ss.PutSimple([]byte(fmt.Sprintf("fill%02d", i)), val)
			}
			s.cacheMaintain()
			if s.CacheStats().Evictions == 0 {
				t.Fatal("no eviction pass ran")
			}
			if _, ok := s.Tree().Get(read); !ok {
				t.Error("the read key was evicted: its read was not noted")
			}
			if _, ok := s.Tree().Get(unread); ok {
				t.Error("the unread key survived the eviction pass")
			}
		})
	}
}

// TestBytesLiveAcrossRestart: the accounted total is a sum of computed
// Value.Size figures, charged as deltas on the live store and seeded from a
// tree walk on Open. The two must agree on every shape — narrow and wide
// column ends, with and without an expiry, grown, shrunk, touched — whether
// a value comes back from the checkpoint or from the log tail behind it.
func TestBytesLiveAcrossRestart(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), Workers: 2, MaxBytes: 1 << 30}
	s := openAt(t, cfg, clock.NewFake())
	future := nanosIn(s, time.Hour)
	key := func(i int) []byte { return []byte(fmt.Sprintf("live-%03d", i)) }
	ten := make([]value.ColPut, 10)
	for i := range ten {
		ten[i] = value.ColPut{Col: i, Data: []byte("4444")}
	}
	mix := func(w, from, to int) {
		sess := s.Session(w)
		for i := from; i < to; i++ {
			switch i % 5 {
			case 0:
				sess.PutSimple(key(i), []byte("88888888"))
			case 1:
				putSimpleTTL(sess, key(i), []byte("88888888"), future)
			case 2:
				sess.Put(key(i), ten)
			case 3:
				sess.PutSimple(key(i), make([]byte, 300)) // 2-byte column ends
			case 4:
				sess.PutSimple(key(i), make([]byte, 70000)) // 4-byte column ends
			}
		}
	}
	mix(0, 0, 100)
	if _, _, err := s.CheckpointN(0); err != nil {
		t.Fatal(err)
	}
	// The tail: new keys, and every kind of size change over checkpointed
	// ones, half of them through the other worker's log (handoff anchors).
	mix(1, 100, 150)
	sess := s.Session(1)
	for i := 0; i < 100; i += 10 {
		sess.Put(key(i), ten[4:5])                          // grows columns, or overwrites one
		sess.PutSimple(key(i+3), []byte("narrow"))          // 2-byte ends back to 1-byte
		sess.Put(key(i+4), []value.ColPut{{Col: 2}})        // 4-byte ends kept, two empty columns more
		sess.Touch(key(i+5), future)                        // gains an expiry
		sess.PutSimple(key(i+6), []byte("no longer a ttl")) // loses one
		sess.Remove(key(i + 7))
	}
	before := s.CacheStats().BytesLive

	r := restart(t, s, cfg)
	var walked int64
	r.Tree().Scan(nil, func(k []byte, v *value.Value) bool {
		walked += int64(v.Size())
		return true
	})
	if after := r.CacheStats().BytesLive; after != before || walked != before {
		t.Fatalf("BytesLive %d before close, %d after reopen (a tree walk says %d)", before, after, walked)
	}
}
