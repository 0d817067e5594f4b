package kvstore

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/value"
	"repro/internal/vfs"
)

// Backend-fault torture: the crash-at-every-boundary harness with a
// read-through backend under fault injection. The workload interleaves
// read-through loads, deterministic evictions that spill through the
// write-behind queue, and mock fault phases (error burst, hang, hard outage,
// heal, re-fail). The model extends the base invariants:
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
//     the backend into a recovered store must carry the columns of some
//     state the model computed for it.

const tbWriteBehindDepth = 32

var errTortureOutage = errors.New("injected backend outage")

// loaded holds v, the value the store answered key with, to the model. A
// version the model does not hold yet is the loader's install: its input is
// the backend's copy of key, its version and expiry are what the loader drew.
func (tt *torture) loaded(key string, v *value.Value) {
	if v == nil {
		return
	}
	now := tt.now()
	if st, ok := tt.ref.Get(key, now); !ok || st.Version != v.Version() {
		payload, _ := tt.mock.Get(key)
		cols, err := backend.DecodeCols(payload)
		if err != nil {
			fatalDump(tt.t, tt.s, "the backend's copy of %q: %v", key, err)
		}
		if !tt.ref.Install(key, v.Version(), now, v.ExpiresAt(), cols...) {
			fatalDump(tt.t, tt.s, "%q was loaded at version %d over the live value the model holds", key, v.Version())
		}
	}
	tt.check("load", key, v, true)
}

func (tt *torture) getOrLoad(key string) (*value.Value, error) {
	v, _, err := tt.sess[0].GetOrLoad(context.Background(), []byte(key))
	if err == nil {
		tt.loaded(key, v)
	}
	return v, err
}

// backendWorkload drives the fault phases. FS crashes surface as
// vfs.ErrCrashed from the first ack/ckpt they break, exactly like the base
// workload; all backend-side assertions are filesystem-independent and hold
// regardless of where a crash lands.
func (tt *torture) backendWorkload() error {
	// Heal before Close: a crash mid-outage-phase must not wedge the final
	// write-behind drain behind a dead backend.
	defer tt.mock.SetError(nil)

	// Phase 1: read-through population — every seeded key is exactly one
	// backend load, and a re-read stays in the tree.
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("bk%02d", i)
		tt.mock.Seed(k, backend.EncodeCols([][]byte{[]byte(fmt.Sprintf("seed-%02d", i))}))
		v, err := tt.getOrLoad(k)
		if err != nil {
			return fmt.Errorf("load %s: %w", k, err)
		}
		if v == nil {
			return fmt.Errorf("seeded key %s answered a miss", k)
		}
	}
	if _, err := tt.getOrLoad("bk03"); err != nil {
		return err
	}
	if n := tt.mock.LoadsFor("bk03"); n != 1 {
		return fmt.Errorf("re-read of resident bk03 reloaded (loads=%d, want 1)", n)
	}
	if err := tt.ack(); err != nil {
		return err
	}

	// Phase 2: evict + spill + herd. The eviction spills bk00 upstream;
	// after the drain the next generation of misses is a herd parked on a
	// hung backend — release must yield exactly one load.
	if !tt.s.evictKey([]byte("bk00")) {
		return fmt.Errorf("deterministic evict of bk00 failed")
	}
	tt.evict("bk00")
	if !tt.s.DrainWriteBehind(5 * time.Second) {
		return fmt.Errorf("write-behind drain stalled")
	}
	before := tt.mock.LoadsFor("bk00")
	release := tt.mock.Hang()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ss := tt.s.Session(0)
			ss.GetOrLoad(context.Background(), []byte("bk00"))
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the herd park on the flight
	release()
	wg.Wait()
	if n := tt.mock.LoadsFor("bk00"); n != before+1 {
		return fmt.Errorf("herd generation made %d backend loads, want 1", n-before)
	}
	if v, ok := tt.s.tree.Get([]byte("bk00")); ok { // some goroutine's flight did the install
		tt.loaded("bk00", v)
	}
	if err := tt.ack(); err != nil {
		return err
	}
	if err := tt.ckpt(); err != nil {
		return err
	}

	// Phase 3: hard outage. An acked key evicted while the backend is down
	// loses only its upstream copy — the WAL keeps the ack. Misses fail,
	// three in a row trip the breaker.
	tt.putSimple("w00", "w00-acked")
	tt.putSimple("w01", "w01-acked")
	if err := tt.ack(); err != nil {
		return err
	}
	tt.mock.SetError(errTortureOutage)
	if !tt.s.evictKey([]byte("w00")) {
		return fmt.Errorf("deterministic evict of w00 failed")
	}
	tt.evict("w00")
	if !tt.s.DrainWriteBehind(5 * time.Second) {
		return fmt.Errorf("outage drain stalled (failed spills must still complete)")
	}
	opens := tt.be.Stats().BreakerOpens
	for i := 0; i < 6; i++ {
		if _, err := tt.getOrLoad(fmt.Sprintf("miss-%d", i)); err == nil {
			return fmt.Errorf("miss %d during outage did not error", i)
		}
	}
	if got := tt.be.Stats().BreakerOpens; got < opens+1 {
		return fmt.Errorf("breaker did not open under the burst (opens=%d)", got)
	}

	// Phase 4: heal. The next admitted half-open probe succeeds and closes
	// the circuit; loads flow again.
	tt.mock.SetError(nil)
	tt.mock.Seed("heal", backend.EncodeCols([][]byte{[]byte("healed")}))
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := tt.getOrLoad("heal")
		if err == nil && v != nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("backend did not heal within 5s (last: %v)", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := tt.ack(); err != nil {
		return err
	}

	// Phase 5: re-fail. Having recovered once, the breaker must trip again
	// — a one-shot breaker that heals permanently open or permanently
	// closed fails here.
	reopens := tt.be.Stats().BreakerOpens
	tt.mock.SetError(errTortureOutage)
	deadline = time.Now().Add(5 * time.Second)
	for tt.be.Stats().BreakerOpens <= reopens {
		tt.getOrLoad("miss-refail")
		if time.Now().After(deadline) {
			return fmt.Errorf("breaker did not reopen after recovery")
		}
		time.Sleep(time.Millisecond)
	}
	tt.mock.SetError(nil)

	// Singleflight held through every phase: no key ever had two loads in
	// flight at once, herd, outage, and heal included.
	if n := tt.mock.MaxConcurrentLoads(); n > 1 {
		return fmt.Errorf("duplicate in-flight loads for one key (max %d)", n)
	}

	// Phase 6: applied but never acknowledged.
	tt.putSimple("pending-backend", "p1")
	return nil
}

// attach adds the backend tier to cfg: b, with the configuration's
// write-behind queue and stale-if-error bound.
func attach(cfg *Config, b backend.Backend) {
	cfg.Backend, cfg.WriteBehind, cfg.MaxStale = b, tbWriteBehindDepth, time.Minute
}

// verifyBackend re-opens one crash image with the (healed) backend attached
// and checks the read-through integration: a key the backend still holds
// loads back carrying only the columns of a state the model computed.
func (tt *torture) verifyBackend(img *vfs.MemFS, label string) {
	label += "/read-through"
	r := tt.reopen(img, label, func(cfg *Config) { attach(cfg, tt.mock) })
	defer r.Close()
	ss := r.Session(0)
	written := tt.ref.Written()
	for _, k := range []string{"bk00", "bk03", "w00", "heal"} {
		if !slices.Contains(written, k) {
			continue // the crash aborted the workload before this key existed
		}
		v, _, err := ss.GetOrLoad(context.Background(), []byte(k))
		if err != nil {
			fatalDump(tt.t, r, "%s: GetOrLoad(%s) after recovery: %v", label, k, err)
		}
		if v == nil {
			continue // absent upstream and dropped locally — a legal clean drop
		}
		if !tt.ref.Held(k, v.Cols()) {
			fatalDump(tt.t, r, "%s: key %q read %q after recovery, the columns of no state the model computed", label, k, v.Cols())
		}
	}
}

// TestBackendFaultTorture enumerates every filesystem boundary of the
// backend-fault workload and crashes at each one; the run that completes
// without reaching its boundary proves the fault phases themselves pass.
// Each run gets a fresh mock backend behind the retry/timeout/breaker
// decoration.
func TestBackendFaultTorture(t *testing.T) {
	crashRun{
		workers: 1, parts: 1,
		start: func(tt *torture, cfg *Config) {
			tt.mock = backend.NewMock(0)
			tt.be = backend.Wrap(tt.mock, backend.WrapConfig{
				Timeout:         250 * time.Millisecond,
				BreakerFailures: 3,
				BreakerOpenFor:  25 * time.Millisecond,
			})
			attach(cfg, tt.be)
		},
		workload: (*torture).backendWorkload,
		check:    (*torture).verifyBackend,
	}.enumerate(t)
}
