package kvstore

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/value"
	"repro/internal/vfs"
)

// Cache-mode crash torture: the crash-at-every-boundary harness with the
// maintenance loop's eviction and TTL sweep running (invoked
// deterministically) between write phases. The invariants extend the base
// ones:
//
//   - Evictions and expirations are clean drops (no WAL record), so a
//     dropped key may legally be ABSENT after recovery (its checkpoint
//     omits it and pre-checkpoint records do not replay) or PRESENT at a
//     state the model computed (its log record replayed) — but never at a
//     state that mixes versions and data, and never below the acknowledged
//     state when it is present.
//   - A key never dropped keeps the full guarantee: crash during eviction
//     must not lose any acked write of a non-evicted key.
//
// The observation point is the live store right after each maintenance
// pass: any key the model holds a value for that no longer appears in the
// raw tree was dropped by the pass.

// tortureCacheMaxBytes keeps ~half of the phase-1 population resident, so
// every maintenance pass actually evicts.
const tortureCacheMaxBytes = 8 << 10

// observeDrops tells the model which keys the maintenance pass just
// dropped (evicted or swept). The raw tree is inspected so lazy expiry
// cannot mask a physically-present key.
func (tt *torture) observeDrops() {
	for _, k := range tt.ref.Written() {
		if _, ok := tt.s.tree.Get([]byte(k)); !ok {
			tt.ref.Evict(k) // a no-op for a key removed or dropped before
		}
	}
}

// cacheWorkload drives puts, TTL puts, removes, checkpoints, and explicit
// maintenance passes (eviction + sweep) with acknowledgment points between
// them, under a byte budget small enough that every pass evicts.
func (tt *torture) cacheWorkload() error {
	filler := strings.Repeat("0123456789abcdef", 16) // ~256 B values
	val := func(tag string, i int) string {
		return fmt.Sprintf("%s-%02d-%s", tag, i, filler)
	}
	// Phase 1: populate to ~2x the budget, ack, evict, checkpoint. The
	// checkpoint omits everything the pass evicted.
	for i := 0; i < 40; i++ {
		tt.putSimple(fmt.Sprintf("c%02d", i), val("r1", i))
	}
	if err := tt.ack(); err != nil {
		return err
	}
	tt.s.cacheMaintain()
	tt.observeDrops()
	if err := tt.ckpt(); err != nil {
		return err
	}
	// Phase 2: TTL writes — live ones and an already-lapsed one — then a
	// maintenance pass that sweeps the lapsed key and keeps evicting.
	for i := 0; i < 6; i++ {
		tt.putTTL(fmt.Sprintf("e%02d", i), val("r2", i), time.Hour)
	}
	tt.putTTL("x00", val("r2x", 0), -time.Second)
	if err := tt.ack(); err != nil {
		return err
	}
	tt.s.cacheMaintain()
	tt.observeDrops()
	// Phase 3: removes of (possibly evicted) keys, fresh writes past the
	// budget, another pass, a second checkpoint, and a flush-acked tail.
	tt.remove("c03")
	tt.remove("c27")
	for i := 0; i < 16; i++ {
		tt.putSimple(fmt.Sprintf("d%02d", i), val("r3", i))
	}
	tt.s.cacheMaintain()
	tt.observeDrops()
	if err := tt.ckpt(); err != nil {
		return err
	}
	for i := 0; i < 6; i++ {
		tt.putSimple(fmt.Sprintf("t%02d", i), val("r4", i))
	}
	// A multi-column value, deterministically evicted, then partially
	// re-put: the insert record (wal.OpInsert) must keep replay from
	// merging the dropped value's other column back in — the model's
	// state check catches any mixing at every crash boundary.
	tt.put("mc", value.ColPut{Col: 0, Data: []byte("mc-c0")}, value.ColPut{Col: 1, Data: []byte("mc-c1")})
	if !tt.s.evictKey([]byte("mc")) {
		return fmt.Errorf("deterministic evict of mc failed")
	}
	tt.evict("mc")
	tt.putSimple("mc", "mc-fresh-col0-only")
	if err := tt.ack(); err != nil {
		return err
	}
	// Phase 4: applied but never acknowledged.
	tt.putSimple("pending-cache", val("r5", 0))
	// A workload that ran to here must have exercised the policy, or the
	// armed runs torture nothing.
	if st := tt.s.CacheStats(); st.Evictions == 0 || st.Expirations == 0 {
		return fmt.Errorf("cache workload under-exercised the policy: %+v", st)
	}
	return nil
}

// cacheMode opens the store in cache mode under the torture's budget.
func cacheMode(cfg *Config) { cfg.MaxBytes = tortureCacheMaxBytes }

// verifyCacheMode re-opens one crash image in cache mode and checks the
// cache-specific guarantees: the byte bound holds before Open returns, and
// every surviving key carries a state the model computed (recovery-time
// eviction makes absence unfalsifiable, so only presence is checked).
func (tt *torture) verifyCacheMode(img *vfs.MemFS, label string) {
	label += "/cache-mode"
	r := tt.reopen(img, label, cacheMode)
	defer r.Close()
	if live := r.CacheStats().BytesLive; live > tortureCacheMaxBytes {
		fatalDump(tt.t, r, "%s: recovered bytes_live %d exceeds the %d bound", label, live, tortureCacheMaxBytes)
	}
	tt.judge(r, label, true, false) // presence only; rollbacks are the plain image's verdict
}

// TestCrashTortureEviction enumerates every filesystem boundary of the
// cache-mode workload — eviction and sweep passes interleaved with acks and
// checkpoints — and crashes at each one: no acked non-dropped write is ever
// lost, dropped keys recover only to states the model computed, and the
// bound re-establishes on recovery.
func TestCrashTortureEviction(t *testing.T) {
	crashRun{
		workers: 1, parts: 1,
		start:    func(_ *torture, cfg *Config) { cacheMode(cfg) },
		workload: (*torture).cacheWorkload,
		check:    (*torture).verifyCacheMode,
	}.enumerate(t)
}
