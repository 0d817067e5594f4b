package cache

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/workload"
)

// drive pushes one get-or-admit step through the policy the way the store
// does: hit → access note; miss → account + admit, then maintain (drain +
// evict) with evictions applied to the model set.
type policySim struct {
	c     *Cache
	model map[string]bool
	size  int64
	hits  int
	total int
}

func newPolicySim(maxBytes int, size int64) *policySim {
	return &policySim{c: New(1, maxBytes), model: map[string]bool{}, size: size}
}

func (ps *policySim) step(key []byte) {
	ps.total++
	if ps.model[string(key)] {
		ps.hits++
		ps.c.NoteAccess(0, key)
		return
	}
	ps.model[string(key)] = true
	ps.c.Account(0, ps.size)
	ps.c.NotePut(0, key, int(ps.size))
	ps.c.Maintain(func(k []byte) bool {
		if !ps.model[string(k)] {
			return false
		}
		delete(ps.model, string(k))
		ps.c.Account(-1, -ps.size)
		return true
	})
}

// fifoSim is the plain-FIFO reference cache the acceptance criterion
// compares against: same trace, same byte budget, evict strictly oldest.
type fifoSim struct {
	set      map[string]bool
	queue    []string
	head     int
	size     int64
	maxBytes int64
	used     int64
	hits     int
	total    int
}

func (fs *fifoSim) step(key []byte) {
	fs.total++
	if fs.set[string(key)] {
		fs.hits++
		return
	}
	fs.set[string(key)] = true
	fs.queue = append(fs.queue, string(key))
	fs.used += fs.size
	for fs.used > fs.maxBytes && fs.head < len(fs.queue) {
		old := fs.queue[fs.head]
		fs.head++
		if fs.set[old] {
			delete(fs.set, old)
			fs.used -= fs.size
		}
	}
}

// TestS3FIFOBeatsPlainFIFOOnZipfian is the policy half of the acceptance
// criterion: on the same over-capacity zipfian trace, the S3-FIFO policy's
// hit rate must beat a plain FIFO of the same byte budget. Zipfian traffic
// under theta 0.99 has a hot head that FIFO keeps flushing out with every
// burst of cold keys; S3-FIFO's probationary small queue sheds the cold
// tail while ghost hits route the recurring head into main.
func TestS3FIFOBeatsPlainFIFOOnZipfian(t *testing.T) {
	const (
		valSize  = 1024
		capacity = 400 * valSize // ~400 resident values
		nkeys    = 4000          // 10x over capacity
		ops      = 120_000
	)
	zipf := workload.ZipfKeys(42, nkeys)
	s3 := newPolicySim(capacity, valSize)
	fifo := &fifoSim{set: map[string]bool{}, size: valSize, maxBytes: capacity}
	for i := 0; i < ops; i++ {
		k := zipf.Next()
		s3.step(k)
		fifo.step(k)
	}
	s3Rate := float64(s3.hits) / float64(s3.total)
	fifoRate := float64(fifo.hits) / float64(fifo.total)
	t.Logf("hit rate: s3-fifo %.4f, plain fifo %.4f (%d ops, %d keys, %d resident)",
		s3Rate, fifoRate, ops, nkeys, capacity/valSize)
	if s3Rate <= fifoRate {
		t.Fatalf("S3-FIFO hit rate %.4f does not beat plain FIFO %.4f on the same zipfian trace", s3Rate, fifoRate)
	}
	st := s3.c.Stats()
	if st.Evictions == 0 || st.GhostHits == 0 {
		t.Fatalf("policy under-exercised: %+v", st)
	}
	// The simulated store honored the budget after every maintain pass.
	if live := s3.c.BytesLive(); live > capacity {
		t.Fatalf("bytes live %d exceeds capacity %d after maintain", live, capacity)
	}
}

// TestAccountingShards verifies worker-sharded accounting sums correctly,
// including the reserved maintenance shard (worker -1 and out-of-range ids).
func TestAccountingShards(t *testing.T) {
	c := New(4, 0)
	c.Account(0, 100)
	c.Account(3, 50)
	c.Account(-1, 25)
	c.Account(99, 25) // out of range: reserved shard
	if got := c.BytesLive(); got != 200 {
		t.Fatalf("BytesLive = %d, want 200", got)
	}
	c.Account(3, -50)
	if got := c.BytesLive(); got != 150 {
		t.Fatalf("BytesLive = %d, want 150", got)
	}
	if c.EvictionEnabled() {
		t.Fatal("eviction should be disabled at maxBytes 0")
	}
	// With eviction disabled the policy entry points are inert no-ops.
	c.NotePut(0, []byte("k"), 10)
	c.NoteAccess(0, []byte("k"))
	c.NoteRemove(0, []byte("k"))
	c.Maintain(func([]byte) bool { t.Fatal("evicted without a budget"); return false })
	c.Seed([]byte("k"), 10)
}

// TestGhostPromotion pins the S3-FIFO second chance: a key evicted from the
// small queue and re-admitted while its hash is in ghost goes straight to
// main and survives a subsequent cold-key flood that would have evicted it
// from small.
func TestGhostPromotion(t *testing.T) {
	const valSize = 100
	c := New(1, 10*valSize)
	live := map[string]bool{}
	evict := func(k []byte) bool {
		if !live[string(k)] {
			return false
		}
		delete(live, string(k))
		c.Account(-1, -valSize)
		return true
	}
	put := func(k string) {
		if !live[k] {
			live[k] = true
			c.Account(0, valSize)
		}
		c.NotePut(0, []byte(k), valSize)
		c.Maintain(evict)
	}
	put("victim")
	for i := 0; i < 20; i++ { // flood: evicts victim from small
		put(fmt.Sprintf("cold-%02d", i))
	}
	if live["victim"] {
		t.Fatal("victim survived the first flood; test premise broken")
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
	put("victim") // ghost hit: straight to main
	if c.Stats().GhostHits != 1 {
		t.Fatalf("ghost hits = %d, want 1", c.Stats().GhostHits)
	}
	for i := 0; i < 8; i++ { // flood again, with the victim kept hot
		c.NoteAccess(0, []byte("victim"))
		put(fmt.Sprintf("cold2-%02d", i))
	}
	if !live["victim"] {
		t.Fatal("ghost-promoted key evicted by a small flood main should have shielded it from")
	}
}

// TestRemoveForgets verifies an explicit remove clears the policy's entry
// so the eviction scan never hands the store a key it already dropped.
func TestRemoveForgets(t *testing.T) {
	c := New(1, 1000)
	c.Account(0, 400)
	c.NotePut(0, []byte("a"), 400)
	c.Maintain(func([]byte) bool { t.Fatal("unexpected evict"); return false })
	c.Account(0, -400)
	c.NoteRemove(0, []byte("a"))
	// Push over budget with new keys; "a" must never be offered for
	// eviction even though it was admitted earlier.
	evicted := map[string]bool{}
	live := int64(400 * 3)
	c.Account(0, live)
	for _, k := range []string{"b", "c", "d"} {
		c.NotePut(0, []byte(k), 400)
	}
	c.Maintain(func(k []byte) bool {
		if string(k) == "a" {
			t.Fatal("evicted a removed key")
		}
		evicted[string(k)] = true
		c.Account(-1, -400)
		return true
	})
	if len(evicted) == 0 {
		t.Fatal("no evictions despite being over budget")
	}
}

// TestRingOverflowDrops verifies a stuffed admission ring sheds events
// (counted in stats) instead of growing without bound between drains.
func TestRingOverflowDrops(t *testing.T) {
	c := New(1, 1<<30)
	key := []byte("k")
	for i := 0; i < maxRingEvents+10; i++ {
		c.NotePut(0, key, 1)
	}
	if drops := c.Stats().AdmitDrops; drops != 10 {
		t.Fatalf("admit drops = %d, want 10", drops)
	}
	r := &c.rings[0]
	r.mu.Lock()
	n := len(r.ev)
	r.mu.Unlock()
	if n != maxRingEvents {
		t.Fatalf("ring holds %d events, want the cap %d", n, maxRingEvents)
	}
}

// TestHelpEnforceUnderBudgetNeverWaits pins HelpEnforce's answer to a ring
// past half while the budget holds: it does not wait for a pass that holds
// the policy lock (the pass drains the ring itself), and with the lock free
// it drains the ring.
func TestHelpEnforceUnderBudgetNeverWaits(t *testing.T) {
	c := New(1, 1<<30)
	for i := 0; i < maxRingEvents/2; i++ {
		c.NotePut(0, []byte("k"), 1)
	}
	ringLen := func() int {
		r := &c.rings[0]
		r.mu.Lock()
		defer r.mu.Unlock()
		return len(r.ev)
	}
	noEvict := func([]byte) bool { t.Error("evicted under budget"); return false }
	c.maintMu.Lock() // a pass in progress
	done := make(chan struct{})
	go func() {
		c.HelpEnforce(noEvict)
		close(done)
	}()
	waited := false
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		waited = true
	}
	c.maintMu.Unlock()
	if waited {
		t.Fatal("HelpEnforce under budget waited for the policy lock")
	}
	if n := ringLen(); n != maxRingEvents/2 {
		t.Fatalf("ring holds %d events with the lock held elsewhere, want all %d", n, maxRingEvents/2)
	}
	c.HelpEnforce(noEvict)
	if n := ringLen(); n != 0 {
		t.Fatalf("ring holds %d events after HelpEnforce, want it drained", n)
	}
}

// TestHashZeroReserved pins the zero-hash remap the access rings rely on.
func TestHashZeroReserved(t *testing.T) {
	if Hash(nil) == 0 || Hash([]byte{}) == 0 {
		t.Fatal("empty-key hash is the reserved 0")
	}
	if Hash([]byte("a")) == Hash([]byte("b")) {
		t.Fatal("trivial collision")
	}
}
