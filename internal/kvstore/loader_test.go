package kvstore

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/breaker"
	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/value"
	"repro/internal/vfs"
)

func TestGetOrLoadReadThrough(t *testing.T) {
	m := backend.NewMock(0)
	m.Seed("k", backend.EncodeCols([][]byte{[]byte("v0"), []byte("v1")}))
	s := openAt(t, Config{Backend: m}, clock.Wall{})
	ss := s.Session(0)
	ctx := context.Background()

	v, stale, err := ss.GetOrLoad(ctx, []byte("k"))
	if err != nil || stale || v == nil {
		t.Fatalf("GetOrLoad = %v,%v,%v", v, stale, err)
	}
	if string(v.Col(0)) != "v0" || string(v.Col(1)) != "v1" {
		t.Fatalf("cols = %q %q", v.Col(0), v.Col(1))
	}
	// Installed: a plain GetValue now hits without touching the backend.
	if _, ok := ss.GetValue([]byte("k")); !ok {
		t.Fatal("loaded value not installed")
	}
	before := m.Loads()
	if v2, _, err := ss.GetOrLoad(ctx, []byte("k")); err != nil || v2 == nil {
		t.Fatalf("second GetOrLoad: %v %v", v2, err)
	}
	if m.Loads() != before {
		t.Fatal("hit path touched the backend")
	}
	st := s.LoaderStats()
	if st.Loads != 1 || st.LoadErrors != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGetOrLoadTTLRidesHeader(t *testing.T) {
	m := backend.NewMock(30 * time.Millisecond)
	m.Seed("k", backend.EncodeCols([][]byte{[]byte("v")}))
	wall := clock.NewFake()
	s := openAt(t, Config{Backend: m, NegativeTTL: -1}, wall)
	ss := s.Session(0)
	ctx := context.Background()
	v, _, err := ss.GetOrLoad(ctx, []byte("k"))
	if err != nil || v == nil {
		t.Fatalf("load: %v %v", v, err)
	}
	if v.ExpiresAt() == 0 {
		t.Fatal("backend TTL not stamped on the value")
	}
	wall.Advance(30*time.Millisecond - 1)
	if _, ok := ss.GetValue([]byte("k")); !ok {
		t.Fatal("value lapsed before its backend TTL")
	}
	wall.Advance(1)
	if _, ok := ss.GetValue([]byte("k")); ok {
		t.Fatal("value survived its backend TTL")
	}
	// Re-load after expiry fetches again.
	if v, _, err := ss.GetOrLoad(ctx, []byte("k")); err != nil || v == nil {
		t.Fatalf("reload: %v %v", v, err)
	}
	if m.Loads() != 2 {
		t.Fatalf("loads = %d, want 2", m.Loads())
	}
}

// TestGetOrLoadHerd is the herd property: 512 concurrent misses on one key
// make exactly one backend load, with the other 511 coalesced onto it and
// never more than one load in flight.
func TestGetOrLoadHerd(t *testing.T) {
	m := backend.NewMock(0)
	m.Seed("hot", backend.EncodeCols([][]byte{[]byte("v")}))
	release := m.Hang()
	s := openAt(t, Config{Backend: m}, clock.Wall{})
	ctx := context.Background()

	const herd = 512
	var wg sync.WaitGroup
	errs := make([]error, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ss := s.Session(0)
			v, _, err := ss.GetOrLoad(ctx, []byte("hot"))
			if err == nil && v == nil {
				err = errors.New("nil value")
			}
			errs[i] = err
		}(i)
	}
	// Wait until every miss has either led or parked, then release the
	// backend: coalesced must equal herd-1 at that point.
	waitUntil(t, func() bool {
		return s.LoaderStats().HerdCoalesced == herd-1
	})
	release()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	if n := m.LoadsFor("hot"); n != 1 {
		t.Fatalf("backend loads = %d, want exactly 1", n)
	}
	if n := m.MaxConcurrentLoads(); n != 1 {
		t.Fatalf("max concurrent loads = %d, want 1", n)
	}
	st := s.LoaderStats()
	if st.HerdCoalesced != herd-1 {
		t.Fatalf("herd_coalesced = %d, want %d", st.HerdCoalesced, herd-1)
	}
}

func TestGetOrLoadWaiterHonorsContext(t *testing.T) {
	m := backend.NewMock(0)
	m.Seed("k", backend.EncodeCols([][]byte{[]byte("v")}))
	release := m.Hang()
	defer release()
	s := openAt(t, Config{Backend: m}, clock.Wall{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		ss := s.Session(0)
		ss.GetOrLoad(context.Background(), []byte("k"))
	}()
	waitUntil(t, func() bool { return m.Loads() == 1 })
	ss := s.Session(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, _, err := ss.GetOrLoad(ctx, []byte("k")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter err = %v", err)
	}
	release()
	<-leaderDone
}

func TestGetOrLoadNegativeCache(t *testing.T) {
	m := backend.NewMock(0)
	wall := clock.NewFake()
	s := openAt(t, Config{Backend: m, NegativeTTL: 50 * time.Millisecond}, wall)
	ss := s.Session(0)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if v, _, err := ss.GetOrLoad(ctx, []byte("ghost")); v != nil || err != nil {
			t.Fatalf("miss %d: %v %v", i, v, err)
		}
	}
	if n := m.LoadsFor("ghost"); n != 1 {
		t.Fatalf("backend loads = %d, want 1 (negative-cached)", n)
	}
	st := s.LoaderStats()
	if st.NegativeHits != 4 {
		t.Fatalf("negative hits = %d, want 4", st.NegativeHits)
	}
	wall.Advance(50 * time.Millisecond)
	ss.GetOrLoad(ctx, []byte("ghost"))
	if n := m.LoadsFor("ghost"); n != 2 {
		t.Fatalf("backend loads after TTL = %d, want 2", n)
	}
}

func TestPutInvalidatesNegativeCache(t *testing.T) {
	m := backend.NewMock(0)
	s := openAt(t, Config{
		Backend:     m,
		NegativeTTL: time.Hour, // a put must not wait this out
		WriteBehind: 16,
		MaxBytes:    1, // evict aggressively: the put's only survival is the spill path
	}, clock.Wall{})
	ss := s.Session(0)
	ctx := context.Background()
	if v, _, err := ss.GetOrLoad(ctx, []byte("k")); v != nil || err != nil {
		t.Fatalf("prime miss: %v %v", v, err)
	}
	ss.PutSimple([]byte("k"), []byte("acked"))
	// Whether the key is resident or already evicted-and-spilled, GetOrLoad
	// must find it: the negative verdict died with the put.
	waitUntil(t, func() bool {
		v, _, err := ss.GetOrLoad(ctx, []byte("k"))
		return err == nil && v != nil && string(v.Col(0)) == "acked"
	})
}

func TestStaleIfErrorAndBreakerRecovery(t *testing.T) {
	down := errors.New("backend down")
	m := backend.NewMock(20 * time.Millisecond)
	m.Seed("k", backend.EncodeCols([][]byte{[]byte("v")}))
	w := backend.Wrap(m, backend.WrapConfig{
		BreakerFailures: 2,
		BreakerOpenFor:  40 * time.Millisecond,
	})
	// The store's TTLs run on a fake clock; the breaker, built outside the
	// store, on the real one.
	wall := clock.NewFake()
	s := openAt(t, Config{
		Backend:     w,
		MaxStale:    time.Hour,
		NegativeTTL: -1,
	}, wall)
	ss := s.Session(0)
	ctx := context.Background()

	// Load once while healthy; value carries a 20ms TTL.
	if v, _, err := ss.GetOrLoad(ctx, []byte("k")); err != nil || v == nil {
		t.Fatalf("healthy load: %v %v", v, err)
	}
	wall.Advance(20 * time.Millisecond) // expire it in place
	m.SetError(down)

	// Expired + backend down -> stale-if-error, flagged.
	v, stale, err := ss.GetOrLoad(ctx, []byte("k"))
	if err != nil || v == nil || !stale {
		t.Fatalf("stale serve = %v,%v,%v", v, stale, err)
	}
	if string(v.Col(0)) != "v" {
		t.Fatalf("stale value = %q", v.Col(0))
	}
	ss.GetOrLoad(ctx, []byte("k")) // second failure trips the breaker
	if st := s.LoaderStats(); st.StaleServed < 2 || st.Backend.BreakerOpens != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Breaker open: a miss with nothing resident fails fast with the
	// breaker error, without reaching the backend.
	before := m.Loads()
	if _, _, err := ss.GetOrLoad(ctx, []byte("absent")); !errors.Is(err, backend.ErrUnavailable) {
		t.Fatalf("fail-fast err = %v", err)
	}
	if m.Loads() != before {
		t.Fatal("open breaker let a load through")
	}
	// Heal; after the cool-down the half-open probe restores service.
	m.SetError(nil)
	time.Sleep(50 * time.Millisecond)
	waitUntil(t, func() bool {
		v, stale, err := ss.GetOrLoad(ctx, []byte("k"))
		return err == nil && v != nil && !stale
	})
	if st := s.LoaderStats(); st.Backend.BreakerState != breaker.Closed {
		t.Fatalf("breaker did not close: %+v", st)
	}
}

// TestBreakerTransitionsTraced: the wrapped backend's breaker tripping and
// healing both reach the store's flight recorder, in that order. The trip
// event carries the cumulative open count, the heal event the state healed
// into.
func TestBreakerTransitionsTraced(t *testing.T) {
	m := backend.NewMock(0)
	w := backend.Wrap(m, backend.WrapConfig{BreakerFailures: 1, BreakerOpenFor: 20 * time.Millisecond})
	s := openAt(t, Config{Backend: w, NegativeTTL: -1}, clock.Wall{})
	ss := s.Session(0)
	ctx := context.Background()

	m.SetError(errors.New("backend down"))
	if _, _, err := ss.GetOrLoad(ctx, []byte("k")); err == nil {
		t.Fatal("load succeeded with the backend down")
	}
	m.SetError(nil)
	time.Sleep(30 * time.Millisecond) // past the cool-down: the next load probes
	if _, _, err := ss.GetOrLoad(ctx, []byte("k")); err != nil {
		t.Fatalf("probe load: %v", err)
	}

	var got []obs.Event
	for _, ev := range s.Obs().Recorder().Events() {
		if ev.Kind == obs.EvBreakerOpen || ev.Kind == obs.EvBreakerHeal {
			got = append(got, ev)
		}
	}
	if len(got) != 2 ||
		got[0].Kind != obs.EvBreakerOpen || got[0].Arg1 != 1 ||
		got[1].Kind != obs.EvBreakerHeal || got[1].Arg1 != uint64(breaker.Closed) {
		t.Fatalf("breaker events = %+v, want breaker_open(arg1=1) then breaker_heal(arg1=0)\n%s",
			got, s.Obs().Recorder().DumpString())
	}
}

func TestGetOrLoadFailFastNoGoroutinePileup(t *testing.T) {
	down := errors.New("hard down")
	m := backend.NewMock(0)
	w := backend.Wrap(m, backend.WrapConfig{BreakerFailures: 1, BreakerOpenFor: time.Hour})
	s := openAt(t, Config{Backend: w, NegativeTTL: -1}, clock.Wall{})
	ss := s.Session(0)
	ctx := context.Background()
	ss.PutSimple([]byte("resident"), []byte("v"))
	m.SetError(down)
	ss.GetOrLoad(ctx, []byte("absent")) // trips the breaker

	base := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := s.Session(0)
			for j := 0; j < 50; j++ {
				// Resident keys keep serving...
				if _, ok := sess.GetValue([]byte("resident")); !ok {
					t.Error("resident read failed")
					return
				}
				if v, _, _ := sess.GetOrLoad(ctx, []byte("resident")); v == nil {
					t.Error("resident GetOrLoad failed")
					return
				}
				// ...absent keys fail fast instead of queueing.
				if _, _, err := sess.GetOrLoad(ctx, []byte("absent")); err == nil {
					t.Error("absent GetOrLoad succeeded with backend down")
					return
				}
			}
		}()
	}
	wg.Wait()
	// Nothing may be left parked behind the dead backend.
	waitUntil(t, func() bool { return runtime.NumGoroutine() <= base+8 })
}

func TestWriteBehindSpillAndReload(t *testing.T) {
	m := backend.NewMock(0)
	s := openAt(t, Config{
		Backend:     m,
		WriteBehind: 64,
		MaxBytes:    1, // evict everything the maintenance loop sees
	}, clock.Wall{})
	ss := s.Session(0)
	ctx := context.Background()
	ss.PutSimple([]byte("spillme"), []byte("payload"))
	// Eviction (budget 1 byte) must spill the key to the backend...
	waitUntil(t, func() bool {
		_, ok := m.Get("spillme")
		return ok
	})
	// ...and once it leaves memory, GetOrLoad reads it back through.
	waitUntil(t, func() bool {
		_, resident := ss.GetValue([]byte("spillme"))
		return !resident
	})
	v, stale, err := ss.GetOrLoad(ctx, []byte("spillme"))
	if err != nil || stale || v == nil || string(v.Col(0)) != "payload" {
		t.Fatalf("reload = %v,%v,%v", v, stale, err)
	}
}

func TestWriteBehindPendingVisibleToLoad(t *testing.T) {
	m := backend.NewMock(0)
	release := m.Hang() // spills park in the queue
	defer release()
	s := openAt(t, Config{Backend: m, WriteBehind: 64, MaxBytes: 1}, clock.Wall{})
	ss := s.Session(0)
	ctx := context.Background()
	ss.PutSimple([]byte("k"), []byte("newest"))
	// Wait for eviction to queue the spill (key gone from memory, store hung).
	waitUntil(t, func() bool {
		_, resident := ss.GetValue([]byte("k"))
		return !resident && s.LoaderStats().WriteBehindDepth > 0
	})
	// The backend has nothing yet; the pending spill must answer the load.
	v, _, err := ss.GetOrLoad(ctx, []byte("k"))
	if err != nil || v == nil || string(v.Col(0)) != "newest" {
		t.Fatalf("pending-spill load = %v,%v", v, err)
	}
}

func TestRemoveTombstonePropagates(t *testing.T) {
	m := backend.NewMock(0)
	m.Seed("k", backend.EncodeCols([][]byte{[]byte("old")}))
	s := openAt(t, Config{Backend: m, WriteBehind: 16, NegativeTTL: -1}, clock.Wall{})
	ss := s.Session(0)
	ctx := context.Background()
	if v, _, err := ss.GetOrLoad(ctx, []byte("k")); err != nil || v == nil {
		t.Fatalf("prime: %v %v", v, err)
	}
	ss.Remove([]byte("k"))
	// Immediately after the remove the tombstone may still be queued: the
	// load must see it and answer miss, never resurrect the backend copy.
	if v, _, err := ss.GetOrLoad(ctx, []byte("k")); v != nil || err != nil {
		t.Fatalf("post-remove load = %v %v", v, err)
	}
	// Eventually the delete lands upstream too.
	waitUntil(t, func() bool {
		_, ok := m.Get("k")
		return !ok
	})
}

// TestDrainWriteBehind: with the backend stuck, DrainWriteBehind reports
// false once the clock reaches its timeout, and not before; an empty queue
// drains at once, and a queue that empties ends the wait without the clock.
func TestDrainWriteBehind(t *testing.T) {
	m := backend.NewMock(0)
	wall := clock.NewFake()
	s := openAt(t, Config{Backend: m, WriteBehind: 16}, wall)
	ss := s.Session(0)
	if !s.DrainWriteBehind(time.Hour) {
		t.Fatal("an empty queue did not drain")
	}
	release := m.Hang()
	defer release()
	ss.PutSimple([]byte("k"), []byte("v"))
	ss.Remove([]byte("k")) // a tombstone the stuck backend holds in the queue
	done := make(chan bool, 1)
	go func() { done <- s.DrainWriteBehind(time.Second) }()
	waitUntil(t, func() bool { return wall.Waiters() == 2 }) // the maintenance ticker, and the drain's timer
	wall.Advance(time.Second - 1)
	select {
	case ok := <-done:
		t.Fatalf("drain returned %v before its timeout", ok)
	default:
	}
	wall.Advance(1)
	if <-done {
		t.Fatal("drain reported the queue empty with the backend stuck")
	}
	release()
	if !s.DrainWriteBehind(time.Hour) {
		t.Fatal("drain timed out on a stopped clock")
	}
	if m.Deletes() != 1 {
		t.Fatalf("backend deletes = %d, want 1", m.Deletes())
	}
}

func TestWriteBehindDropsCounted(t *testing.T) {
	m := backend.NewMock(0)
	release := m.Hang()
	defer release()
	s := openAt(t, Config{Backend: m, WriteBehind: 2, NegativeTTL: -1}, clock.Wall{})
	ss := s.Session(0)
	for i := 0; i < 6; i++ {
		ss.PutSimple([]byte{byte('a' + i)}, []byte("v"))
		ss.Remove([]byte{byte('a' + i)}) // tombstones queue up behind the hang
	}
	st := s.LoaderStats()
	if st.WriteBehindDrops == 0 {
		t.Fatalf("expected drops with depth 2, got %+v", st)
	}
	if st.WriteBehindDepth > 3 {
		t.Fatalf("depth exceeded bound: %+v", st)
	}
}

func TestDrainWriteBehindOnShutdown(t *testing.T) {
	mem := vfs.NewMemFS()
	fb, err := backend.NewFile(mem, "/bk", 0)
	if err != nil {
		t.Fatal(err)
	}
	s := openAt(t, Config{Backend: fb, WriteBehind: 64}, clock.NewFake())
	ss := s.Session(0)
	ss.PutSimple([]byte("k"), []byte("v"))
	ss.Remove([]byte("k")) // queue a tombstone
	ss.PutSimple([]byte("k2"), []byte("v2"))
	if !s.DrainWriteBehind(2 * time.Second) {
		t.Fatal("drain timed out")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if d := s.LoaderStats().WriteBehindDepth; d != 0 {
		t.Fatalf("depth after close = %d", d)
	}
}

func TestGetOrLoadHitPathAllocFree(t *testing.T) {
	m := backend.NewMock(0)
	s := openAt(t, Config{Backend: m}, clock.Wall{})
	ss := s.Session(0)
	ss.PutSimple([]byte("hot"), []byte("v"))
	ctx := context.Background()
	key := []byte("hot")
	allocs := testing.AllocsPerRun(200, func() {
		v, stale, err := ss.GetOrLoad(ctx, key)
		if v == nil || stale || err != nil {
			t.Fatal("hit path failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("GetOrLoad hit path allocates %.1f/op, want 0", allocs)
	}
}

func TestGetOrLoadNoBackend(t *testing.T) {
	s := openAt(t, Config{}, clock.Wall{})
	ss := s.Session(0)
	ss.PutSimple([]byte("k"), []byte("v"))
	if v, _, err := ss.GetOrLoad(context.Background(), []byte("k")); err != nil || v == nil {
		t.Fatalf("resident hit: %v %v", v, err)
	}
	if _, _, err := ss.GetOrLoad(context.Background(), []byte("absent")); !errors.Is(err, ErrNoBackend) {
		t.Fatalf("err = %v, want ErrNoBackend", err)
	}
}

func TestLoadDoesNotClobberRacingPut(t *testing.T) {
	m := backend.NewMock(0)
	m.Seed("k", backend.EncodeCols([][]byte{[]byte("from-backend")}))
	release := m.Hang()
	s := openAt(t, Config{Backend: m}, clock.Wall{})
	ssLoad := s.Session(0)
	done := make(chan *value.Value, 1)
	go func() {
		v, _, _ := ssLoad.GetOrLoad(context.Background(), []byte("k"))
		done <- v
	}()
	waitUntil(t, func() bool { return m.Loads() == 1 })
	// A real put lands while the load is in flight.
	ssPut := s.Session(0)
	ssPut.PutSimple([]byte("k"), []byte("from-put"))
	release()
	v := <-done
	if v == nil || string(v.Col(0)) != "from-put" {
		t.Fatalf("load returned %v, want the racing put's value", v)
	}
	if got, _ := ssPut.GetValue([]byte("k")); string(got.Col(0)) != "from-put" {
		t.Fatalf("resident value = %q, put was clobbered", got.Col(0))
	}
}

// waitUntil yields until cond holds, failing the test after 5 s of real time.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
	}
}
