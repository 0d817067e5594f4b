package kvstore

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/value"
	"repro/internal/workload"
)

func nowNanos() uint64 { return uint64(time.Now().UnixNano()) }

// TestTTLLazyExpiry pins the read-side TTL semantics: a lapsed value reads
// as absent on every path (Get, GetInto, GetValue, GetBatch, GetRange)
// before any sweep runs, a TTL-free put clears the expiry, and Touch
// extends and declines correctly.
func TestTTLLazyExpiry(t *testing.T) {
	s, err := Open(Config{MaintainEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.Session(0)
	defer sess.Close()

	past := nowNanos() - uint64(time.Second)
	future := nowNanos() + uint64(time.Hour)
	sess.PutSimpleTTL([]byte("dead"), []byte("x"), past)
	sess.PutSimpleTTL([]byte("live"), []byte("y"), future)
	sess.PutSimple([]byte("plain"), []byte("z"))

	if _, ok := sess.Get([]byte("dead"), nil); ok {
		t.Fatal("expired key visible via Get")
	}
	if _, ok := s.GetInto([]byte("dead"), nil, nil); ok {
		t.Fatal("expired key visible via GetInto")
	}
	if _, ok := sess.GetValue([]byte("dead")); ok {
		t.Fatal("expired key visible via GetValue")
	}
	if _, found := sess.GetBatchInto([][]byte{[]byte("dead"), []byte("live")}); found[0] || !found[1] {
		t.Fatalf("batched lookup: dead=%v live=%v, want false/true", found[0], found[1])
	}
	for _, p := range s.GetRange(nil, 10, nil) {
		if string(p.Key) == "dead" {
			t.Fatal("expired key visible via GetRange")
		}
	}
	var sc RangeScratch
	for _, p := range s.GetRangeInto(nil, 10, nil, &sc) {
		if string(p.Key) == "dead" {
			t.Fatal("expired key visible via GetRangeInto")
		}
	}
	if _, ok := sess.Get([]byte("live"), nil); !ok {
		t.Fatal("unexpired TTL key missing")
	}

	// A plain put over a TTL key clears the expiry.
	sess.PutSimpleTTL([]byte("cleared"), []byte("a"), future)
	sess.PutSimple([]byte("cleared"), []byte("b"))
	if v, ok := s.Tree().Get([]byte("cleared")); !ok || v.ExpiresAt() != 0 {
		t.Fatalf("plain put kept expiry %d", v.ExpiresAt())
	}

	// Touch: extends live keys, declines absent and expired ones.
	if _, ok := sess.Touch([]byte("live"), nowNanos()+2*uint64(time.Hour)); !ok {
		t.Fatal("touch of live key declined")
	}
	if v, ok := s.Tree().Get([]byte("live")); !ok || string(v.Bytes()) != "y" {
		t.Fatal("touch changed the value's columns")
	}
	if _, ok := sess.Touch([]byte("dead"), future); ok {
		t.Fatal("touch revived an expired key")
	}
	if _, ok := sess.Touch([]byte("absent"), future); ok {
		t.Fatal("touch created a key")
	}

	// Removing an expired key reports "did not exist", like every read path
	// (the physical cleanup still happens).
	sess.PutSimpleTTL([]byte("dead-rm"), []byte("x"), past)
	if sess.Remove([]byte("dead-rm")) {
		t.Fatal("remove of an expired key reported it existed")
	}
	if _, ok := s.Tree().Get([]byte("dead-rm")); ok {
		t.Fatal("remove of an expired key left it in the tree")
	}
	if !sess.Remove([]byte("plain")) {
		t.Fatal("remove of a live key reported absent")
	}
}

// TestTTLSweepRemoves verifies the background sweep physically removes
// lapsed keys (clean drop: Len shrinks, expirations counted) while leaving
// live and TTL-free keys alone, across multiple incremental batches.
func TestTTLSweepRemoves(t *testing.T) {
	s, err := Open(Config{MaintainEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.Session(0)
	defer sess.Close()
	past := nowNanos() - 1
	future := nowNanos() + uint64(time.Hour)
	const n = sweepBatchKeys + 100 // force more than one sweep batch
	for i := 0; i < n; i++ {
		sess.PutSimpleTTL([]byte(fmt.Sprintf("dead-%05d", i)), []byte("x"), past)
	}
	sess.PutSimpleTTL([]byte("live"), []byte("y"), future)
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
	if _, ok := sess.Get([]byte("live"), nil); !ok {
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
	dir := t.TempDir()
	future := nowNanos() + uint64(time.Hour)
	past := nowNanos() - 1

	s, err := Open(Config{Dir: dir, Workers: 2, MaintainEvery: -1, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	sess := s.Session(1)
	sess.PutSimpleTTL([]byte("live"), []byte("y"), future)
	sess.PutSimpleTTL([]byte("dead"), []byte("x"), past)
	sess.PutSimple([]byte("plain"), []byte("z"))
	if _, ok := sess.Touch([]byte("plain"), future); !ok {
		t.Fatal("touch failed")
	}
	sess.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Log-only restart: everything replays, expiries intact.
	r, err := Open(Config{Dir: dir, Workers: 2, MaintainEvery: -1, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := r.Tree().Get([]byte("live")); !ok || v.ExpiresAt() != future {
		t.Fatalf("live key lost its expiry across restart: %v", v)
	}
	if v, ok := r.Tree().Get([]byte("plain")); !ok || v.ExpiresAt() != future {
		t.Fatalf("touched key lost its expiry across restart: %v", v)
	}
	if _, ok := r.Get([]byte("dead"), nil); ok {
		t.Fatal("expired key visible after restart")
	}
	// Checkpoint skips the expired key; restart from it has no trace left.
	if _, _, err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(Config{Dir: dir, Workers: 2, MaintainEvery: -1, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, ok := r2.Tree().Get([]byte("dead")); ok {
		t.Fatal("checkpoint carried an expired key")
	}
	if v, ok := r2.Tree().Get([]byte("live")); !ok || v.ExpiresAt() != future {
		t.Fatalf("checkpointed TTL key lost its expiry: %v", v)
	}
}

// TestEvictionVersionMonotonic pins the clean-drop ordering rule: a key
// re-inserted after an eviction must draw a version above the evicted
// value's, or log replay would apply the re-insert below the old put's
// version guard and lose it.
func TestEvictionVersionMonotonic(t *testing.T) {
	s, err := Open(Config{MaintainEvery: -1, MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	v1 := s.PutSimple(0, []byte("k"), []byte("a"))
	if !s.evictKey([]byte("k")) {
		t.Fatal("evictKey failed on a present key")
	}
	if _, ok := s.Get([]byte("k"), nil); ok {
		t.Fatal("evicted key still visible")
	}
	v2 := s.PutSimple(0, []byte("k"), []byte("b"))
	if v2 <= v1 {
		t.Fatalf("post-eviction version %d not above evicted version %d", v2, v1)
	}
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
	s, err := Open(Config{Workers: workers, MaintainEvery: time.Millisecond, MaxBytes: maxBytes})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			s.Close()
		}
	}()

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
			defer sess.Close()
			zipf := workload.ZipfKeys(int64(1000+w), nkeys)
			val := make([]byte, valSize)
			future := nowNanos() + uint64(time.Hour)
			for i := 0; i < opsPer; i++ {
				k := zipf.Next()
				if i%4 == 0 {
					sess.PutSimpleTTL(k, val, future)
				} else if _, ok := sess.Get(k, nil); !ok {
					sess.PutSimple(k, val)
				}
				if i%512 == 0 {
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
	// The workers are done but the enforcer is not: it evicts on its own
	// tick, and a total read before a pass and a walk made after it disagree.
	// Close stops it and waits for it; the tree and the counters of an
	// in-memory store stay readable.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	closed = true
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

// TestCacheRecoveryReenforcesBound builds an over-budget store (eviction
// disabled by MaintainEvery < 0 so nothing runs), restarts it in cache
// mode, and requires the bound to hold before Open returns — replay first,
// then re-enforce.
func TestCacheRecoveryReenforcesBound(t *testing.T) {
	dir := t.TempDir()
	const maxBytes = 1 << 20
	s, err := Open(Config{Dir: dir, Workers: 1, MaintainEvery: -1, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 4096)
	for i := 0; i < 1024; i++ { // ~4 MiB, 4x over the reopen budget
		s.PutSimple(0, []byte(fmt.Sprintf("key-%05d", i)), val)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Config{Dir: dir, Workers: 1, MaintainEvery: -1, FlushInterval: time.Hour, MaxBytes: maxBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
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
		if len(v.Bytes()) != 4096 {
			t.Fatalf("survivor %q has wrong value length %d", k, len(v.Bytes()))
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
// (the packed value; ring arenas are amortized), a warmed GetInto stays at
// zero.
func TestCacheModeAllocs(t *testing.T) {
	s, err := Open(Config{MaintainEvery: -1, MaxBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.Session(0)
	defer sess.Close()
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
		var ok bool
		dst, ok = sess.GetInto(key, nil, dst[:0])
		if !ok {
			t.Fatal("key missing")
		}
	})
	if allocs != 0 {
		t.Fatalf("cache-mode GetInto allocates %.1f times per run, want 0", allocs)
	}

	// TTL put: same discipline, one packed value.
	s.cacheMaintain() // fresh swap buffer for the next measured block
	future := nowNanos() + uint64(time.Hour)
	allocs = testing.AllocsPerRun(200, func() {
		sess.PutSimpleTTL(key, data, future)
	})
	if allocs > 1 {
		t.Fatalf("cache-mode PutSimpleTTL allocates %.1f times per run, want <= 1", allocs)
	}
}

// TestBytesLiveAcrossRestart: the accounted total is a sum of computed
// Value.Size figures, charged as deltas on the live store and seeded from a
// tree walk on Open. The two must agree on every shape — narrow and wide
// column ends, with and without an expiry, grown, shrunk, touched — whether
// a value comes back from the checkpoint or from the log tail behind it.
func TestBytesLiveAcrossRestart(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), Workers: 2, MaintainEvery: -1, FlushInterval: time.Hour, MaxBytes: 1 << 30}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	future := nowNanos() + uint64(time.Hour)
	key := func(i int) []byte { return []byte(fmt.Sprintf("live-%03d", i)) }
	ten := make([]value.ColPut, 10)
	for i := range ten {
		ten[i] = value.ColPut{Col: i, Data: []byte("4444")}
	}
	mix := func(w, from, to int) {
		sess := s.Session(w)
		defer sess.Close()
		for i := from; i < to; i++ {
			switch i % 5 {
			case 0:
				sess.PutSimple(key(i), []byte("88888888"))
			case 1:
				sess.PutSimpleTTL(key(i), []byte("88888888"), future)
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
	if _, _, err := s.Checkpoint(); err != nil {
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
	sess.Close()
	before := s.CacheStats().BytesLive
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var walked int64
	r.Tree().Scan(nil, func(k []byte, v *value.Value) bool {
		walked += int64(v.Size())
		return true
	})
	if after := r.CacheStats().BytesLive; after != before || walked != before {
		t.Fatalf("BytesLive %d before close, %d after reopen (a tree walk says %d)", before, after, walked)
	}
}
