package kvstore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/value"
	"repro/internal/vfs"
)

// Backend-fault torture: the crash-at-every-boundary harness from
// torture_test.go, with a read-through backend under fault injection. The
// workload interleaves read-through loads, deterministic evictions that
// spill through the write-behind queue, and mock fault phases (error burst,
// hang, hard outage, heal, re-fail). The model extends the base invariants:
//
//   - Singleflight holds under every fault: per key, one flight generation
//     makes exactly one backend load, and no key ever has two loads in
//     flight at once (MaxConcurrentLoads == 1), crash or no crash.
//   - Acked writes survive a backend outage during eviction: a spill that
//     fails upstream loses only the backend copy — the WAL still replays
//     the write, so recovery must not lose it (the base verify covers this
//     because an evicted key is a clean drop, never a lost ack).
//   - The breaker is live across its whole lifecycle: it opens under the
//     burst, a half-open probe closes it on heal, and it re-opens when the
//     backend fails again after having recovered.
//   - Read-through after recovery cannot invent data: a key loaded from
//     the backend into a recovered store must carry some state the live
//     store actually applied.

const tbWriteBehindDepth = 32

var errTortureOutage = errors.New("injected backend outage")

// tortureBackend bundles the base harness with the faulty backend tier.
type tortureBackend struct {
	*torture
	mock *backend.Mock
	be   *backend.Wrapped
}

// recordLoaded folds a value the loader installed into the model history
// (duplicate versions are already-known states and are skipped).
func (tb *tortureBackend) recordLoaded(key string, v *value.Value) {
	if v == nil {
		return
	}
	h := tb.histOf(key)
	for _, st := range h.states {
		if !st.tomb && st.ver == v.Version() {
			h.dropped = false
			return
		}
	}
	h.states = append(h.states, kvState{ver: v.Version(), data: joinCols(v.Cols())})
	h.dropped = false
}

// recordResident snapshots key's current tree state into the model (used
// after a herd where some other goroutine's flight did the install).
func (tb *tortureBackend) recordResident(key string) {
	if v, ok := tb.s.tree.Get([]byte(key)); ok {
		tb.recordLoaded(key, v)
	}
}

func (tb *tortureBackend) getOrLoad(key string) (*value.Value, error) {
	v, _, err := tb.sess[0].GetOrLoad(context.Background(), []byte(key))
	if err == nil {
		tb.recordLoaded(key, v)
	}
	return v, err
}

// workload drives the fault phases. FS crashes surface as vfs.ErrCrashed
// from the first ack/ckpt they break, exactly like the base workload; all
// backend-side assertions are filesystem-independent and hold regardless of
// where a crash lands.
func (tb *tortureBackend) workload() error {
	// Phase 1: read-through population — every seeded key is exactly one
	// backend load, and a re-read stays in the tree.
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("bk%02d", i)
		tb.mock.Seed(k, backend.EncodeCols([][]byte{[]byte(fmt.Sprintf("seed-%02d", i))}))
		v, err := tb.getOrLoad(k)
		if err != nil {
			return fmt.Errorf("load %s: %w", k, err)
		}
		if v == nil {
			return fmt.Errorf("seeded key %s answered a miss", k)
		}
	}
	if _, err := tb.getOrLoad("bk03"); err != nil {
		return err
	}
	if n := tb.mock.LoadsFor("bk03"); n != 1 {
		return fmt.Errorf("re-read of resident bk03 reloaded (loads=%d, want 1)", n)
	}
	if err := tb.ack(); err != nil {
		return err
	}

	// Phase 2: evict + spill + herd. The eviction spills bk00 upstream;
	// after the drain the next generation of misses is a herd parked on a
	// hung backend — release must yield exactly one load.
	if !tb.s.evictKey([]byte("bk00")) {
		return fmt.Errorf("deterministic evict of bk00 failed")
	}
	tb.histOf("bk00").dropped = true
	if !tb.s.DrainWriteBehind(5 * time.Second) {
		return fmt.Errorf("write-behind drain stalled")
	}
	before := tb.mock.LoadsFor("bk00")
	release := tb.mock.Hang()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ss := tb.s.Session(0)
			defer ss.Close()
			ss.GetOrLoad(context.Background(), []byte("bk00"))
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the herd park on the flight
	release()
	wg.Wait()
	if n := tb.mock.LoadsFor("bk00"); n != before+1 {
		return fmt.Errorf("herd generation made %d backend loads, want 1", n-before)
	}
	tb.recordResident("bk00")
	if err := tb.ack(); err != nil {
		return err
	}
	if err := tb.ckpt(); err != nil {
		return err
	}

	// Phase 3: hard outage. An acked key evicted while the backend is down
	// loses only its upstream copy — the WAL keeps the ack. Misses fail,
	// three in a row trip the breaker.
	tb.putSimple("w00", "w00-acked")
	tb.putSimple("w01", "w01-acked")
	if err := tb.ack(); err != nil {
		return err
	}
	tb.mock.SetError(errTortureOutage)
	if !tb.s.evictKey([]byte("w00")) {
		return fmt.Errorf("deterministic evict of w00 failed")
	}
	tb.histOf("w00").dropped = true
	if !tb.s.DrainWriteBehind(5 * time.Second) {
		return fmt.Errorf("outage drain stalled (failed spills must still complete)")
	}
	opens := tb.be.Stats().BreakerOpens
	for i := 0; i < 6; i++ {
		if _, err := tb.getOrLoad(fmt.Sprintf("miss-%d", i)); err == nil {
			return fmt.Errorf("miss %d during outage did not error", i)
		}
	}
	if got := tb.be.Stats().BreakerOpens; got < opens+1 {
		return fmt.Errorf("breaker did not open under the burst (opens=%d)", got)
	}

	// Phase 4: heal. The next admitted half-open probe succeeds and closes
	// the circuit; loads flow again.
	tb.mock.SetError(nil)
	tb.mock.Seed("heal", backend.EncodeCols([][]byte{[]byte("healed")}))
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := tb.getOrLoad("heal")
		if err == nil && v != nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("backend did not heal within 5s (last: %v)", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := tb.ack(); err != nil {
		return err
	}

	// Phase 5: re-fail. Having recovered once, the breaker must trip again
	// — a one-shot breaker that heals permanently open or permanently
	// closed fails here.
	reopens := tb.be.Stats().BreakerOpens
	tb.mock.SetError(errTortureOutage)
	deadline = time.Now().Add(5 * time.Second)
	for tb.be.Stats().BreakerOpens <= reopens {
		tb.getOrLoad("miss-refail")
		if time.Now().After(deadline) {
			return fmt.Errorf("breaker did not reopen after recovery")
		}
		time.Sleep(time.Millisecond)
	}
	tb.mock.SetError(nil)

	// Singleflight held through every phase: no key ever had two loads in
	// flight at once, herd, outage, and heal included.
	if n := tb.mock.MaxConcurrentLoads(); n > 1 {
		return fmt.Errorf("duplicate in-flight loads for one key (max %d)", n)
	}

	// Phase 6: applied but never acknowledged.
	tb.putSimple("pending-backend", "p1")
	return nil
}

// verifyBackend re-opens one crash image with the (healed) backend attached
// and checks the read-through integration: a key the backend still holds
// loads back carrying only data the live store actually applied.
func (tb *tortureBackend) verifyBackend(img *vfs.MemFS, label string) {
	t := tb.t
	r, err := Open(Config{
		Dir: tortureDir, Workers: 1, FS: img, SyncWrites: true,
		FlushInterval: time.Hour, MaintainEvery: -1, CheckpointParts: 1,
		Backend: tb.mock, WriteBehind: tbWriteBehindDepth, MaxStale: time.Minute,
	})
	if err != nil {
		t.Fatalf("%s: recovery with backend failed: %v", label, err)
	}
	defer r.Close()
	ss := r.Session(0)
	defer ss.Close()
	for _, k := range []string{"bk00", "bk03", "w00", "heal"} {
		if tb.hist[k] == nil {
			continue // the crash aborted the workload before this key existed
		}
		v, _, err := ss.GetOrLoad(context.Background(), []byte(k))
		if err != nil {
			t.Fatalf("%s: GetOrLoad(%s) after recovery: %v", label, k, err)
		}
		if v == nil {
			continue // absent upstream and dropped locally — a legal clean drop
		}
		got := joinCols(v.Cols())
		okState := false
		for _, st := range tb.hist[k].states {
			if !st.tomb && st.data == got {
				okState = true
				break
			}
		}
		if !okState {
			t.Fatalf("%s: key %q read %q after recovery, matching no applied state", label, k, got)
		}
	}
}

// runTortureBackend executes the backend-fault workload with a crash armed
// at boundary crashAt (0 = disarmed), then verifies every crash image with
// the base model and again with the backend re-attached.
func runTortureBackend(t *testing.T, crashAt int) (ops int, crashed bool) {
	mem := vfs.NewMemFS()
	fault := vfs.NewFault(mem)
	fault.CrashAt(crashAt)
	mock := backend.NewMock(0)
	be := backend.Wrap(mock, backend.WrapConfig{
		Timeout:         250 * time.Millisecond,
		BreakerFailures: 3,
		BreakerOpenFor:  25 * time.Millisecond,
	})
	tt := &torture{t: t, mem: mem, fault: fault, hist: map[string]*keyHist{}, workers: 1, parts: 1}
	tb := &tortureBackend{torture: tt, mock: mock, be: be}
	s, err := Open(Config{
		Dir: tortureDir, Workers: 1, FS: fault, SyncWrites: true,
		FlushInterval: time.Hour, MaintainEvery: -1, CheckpointParts: 1,
		Backend: be, WriteBehind: tbWriteBehindDepth, MaxStale: time.Minute,
	})
	if err != nil {
		if !errors.Is(err, vfs.ErrCrashed) {
			t.Fatalf("crashAt=%d: open: %v", crashAt, err)
		}
	} else {
		tt.open(s)
		if werr := tb.workload(); werr != nil && !errors.Is(werr, vfs.ErrCrashed) {
			t.Fatalf("crashAt=%d: workload: %v", crashAt, werr)
		}
		// Heal before Close: a crash mid-outage-phase must not wedge the
		// final write-behind drain behind a dead backend.
		mock.SetError(nil)
		if cerr := tt.close(); cerr == nil && !fault.Crashed() {
			tt.promote()
		}
	}
	ops, crashed = fault.Ops(), fault.Crashed()
	for _, img := range crashImages {
		c := mem.Clone()
		c.Crash(img.keep)
		tt.verify(c, fmt.Sprintf("backend/crashAt=%d/%s", crashAt, img.name))
		c2 := mem.Clone()
		c2.Crash(img.keep)
		tb.verifyBackend(c2, fmt.Sprintf("backendmode/crashAt=%d/%s", crashAt, img.name))
	}
	return ops, crashed
}

// TestBackendFaultTorture runs the backend-fault workload disarmed (the
// fault phases themselves must pass) and then crashes at a sampled set of
// boundaries. The slowtest variant enumerates every boundary.
func TestBackendFaultTorture(t *testing.T) {
	total, crashed := runTortureBackend(t, 0)
	if crashed {
		t.Fatal("disarmed run crashed")
	}
	t.Logf("backend workload executes %d crash boundaries x %d images", total, len(crashImages))
	stride := total / 12
	if stride < 1 {
		stride = 1
	}
	for i := 1; i <= total; i += stride {
		runTortureBackend(t, i)
	}
}
