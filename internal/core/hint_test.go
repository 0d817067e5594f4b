package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/occ"
	"repro/internal/value"
)

// hintFor runs a wave for key alone and returns what it has for a writer.
func hintFor(tr *Tree, key []byte) borderHint {
	var cur [waveWidth]waveCursor
	tr.wave([][]byte{key}, &cur)
	return cur[0].hint()
}

// ownerOf is the border a put of key would end up holding locked, found the
// way put finds it — from the root, through lockBorder, layer by layer — and
// the bytes of key the layers above it consume. The tree must be quiescent.
func ownerOf(tr *Tree, key []byte) (*borderNode, int) {
	root, off := tr.rootHeader(), 0
	for {
		k := key[off:]
		n := tr.lockBorder(root, keySlice(k))
		perm := n.perm()
		rank, found := n.searchRank(perm, keySlice(k), keyOrd(k))
		if !found || n.keylen(perm.slot(rank)) != klLayer {
			n.h.Unlock()
			return n, off
		}
		slot := perm.slot(rank)
		lvp := n.loadLV(slot)
		n.h.Unlock()
		root, off = tr.resolveLayer(n, slot, lvp), off+8
	}
}

// tryHint is lockHint as putRun calls it, released at once.
func tryHint(tr *Tree, h borderHint, key []byte) *borderNode {
	n := tr.lockHint(h.n, keySlice(key[h.off:]))
	if n != nil {
		n.h.Unlock()
	}
	return n
}

// TestHintIsLockBordersNode pins what makes a hint worth having: on a tree
// nobody is writing, the border a wave ends at — for a key that is there and
// for one that is not, in layer 0 and two layers down — is the border the
// root descent would lock, and lockHint accepts it.
func TestHintIsLockBordersNode(t *testing.T) {
	tr := New()
	keys := waveTestKeys()
	for i, k := range keys {
		if i%3 != 0 {
			tr.Put(k, value.New(k))
		}
	}
	deep := 0
	for _, k := range keys {
		h := hintFor(tr, k)
		want, off := ownerOf(tr, k)
		if h.n != want || h.off != off {
			t.Fatalf("key %q: hint (%p, %d), the root descent locks (%p, %d)", k, h.n, h.off, want, off)
		}
		if got := tryHint(tr, h, k); got != want {
			t.Fatalf("key %q: lockHint returned %p, want %p", k, got, want)
		}
		if off >= 16 {
			deep++
		}
	}
	if deep == 0 {
		t.Fatal("no key of the set lives two layers down")
	}
	if tr.lockHint(nil, 0) != nil {
		t.Fatal("lockHint made a node out of no hint")
	}
}

// TestHintGoesStale takes hints and then changes the tree under them, one
// way at a time: a split that moves the key's slice to a new right sibling, a
// border emptied and unlinked, a layer emptied and collapsed. lockHint must
// refuse each (and leave nothing locked), and a batched put of the same keys
// must land where a put from the root lands.
func TestHintGoesStale(t *testing.T) {
	key := func(i int) []byte { return []byte(fmt.Sprintf("s%05d", i)) }

	t.Run("split", func(t *testing.T) {
		tr := New()
		for i := 0; i < width; i++ {
			tr.Put(key(i*10), value.New(key(i*10)))
		}
		hints := make([]borderHint, width)
		for i := range hints {
			hints[i] = hintFor(tr, key(i*10))
		}
		tr.Put(key(75), value.New(key(75))) // the border is full: it splits
		moved := 0
		for i, h := range hints {
			want, _ := ownerOf(tr, key(i*10))
			got := tryHint(tr, h, key(i*10))
			switch {
			case want == h.n && got != want:
				t.Fatalf("key %q stayed in %p and its hint was refused", key(i*10), want)
			case want != h.n && got != nil:
				t.Fatalf("key %q moved to %p and its hint to %p was accepted", key(i*10), want, h.n)
			case want != h.n:
				moved++
			}
		}
		if moved == 0 || moved == width {
			t.Fatalf("%d of %d keys moved: not a split", moved, width)
		}
	})

	t.Run("deleted", func(t *testing.T) {
		tr := New()
		for i := 0; i < 200; i++ {
			tr.Put(key(i), value.New(key(i)))
		}
		h := hintFor(tr, key(100))
		victims := layer0Keys(h.n)
		for _, k := range victims {
			tr.Remove(k)
		}
		if !occ.Deleted(h.n.h.Load()) {
			t.Skip("the border holding s00100 is its parent's leftmost child and was kept")
		}
		if got := tryHint(tr, h, key(100)); got != nil {
			t.Fatalf("lockHint accepted %p, which is deleted", got)
		}
		if occ.Locked(h.n.h.Load()) {
			t.Fatal("the refused hint was left locked")
		}
	})

	t.Run("collapsed", func(t *testing.T) {
		tr := New()
		long := func(i int) []byte { return []byte(fmt.Sprintf("layered!%04d-and-a-tail", i)) }
		tr.Put([]byte("anchor"), value.New([]byte("anchor")))
		for i := 0; i <= twigCap; i++ { // one more than a twig holds: a layer
			tr.Put(long(i), value.New(long(i)))
		}
		h := hintFor(tr, long(2))
		if h.off != 8 {
			t.Fatalf("hint at offset %d, want the layer under \"layered!\"", h.off)
		}
		for i := 0; i <= twigCap; i++ {
			tr.Remove(long(i))
		}
		if tr.Maintain() != 1 {
			t.Fatal("the emptied layer was not collapsed")
		}
		if got := tryHint(tr, h, long(2)); got != nil {
			t.Fatalf("lockHint accepted %p, the only node of a collapsed layer", got)
		}
		// And a put handed that hint finds its own way.
		tr.putRun([][]byte{long(2)}, []int{0}, []borderHint{h}, 0, func(int, *value.Value) *value.Value {
			return value.New(long(2))
		})
		mustGet(t, tr, string(long(2)), string(long(2)))
		checkInvariants(t, tr)
	})
}

// TestHintStaleWithinItsOwnBatch makes hints go stale between the wave and
// the lock with no second goroutine: every hint of a batch is taken before
// its first put is applied, so a batch can pull the tree from under its own
// later keys. One batch inserts enough neighbours to split a border several
// times over (the later keys' hints name the left half); another's first
// apply empties and unlinks the border a later key was hinted to, which
// apply may do — it holds one border's lock, and the removes stay two
// borders clear of it.
func TestHintStaleWithinItsOwnBatch(t *testing.T) {
	key := func(i int) []byte { return []byte(fmt.Sprintf("w%05d", i)) }
	tr, m := New(), model.New()
	for i := 0; i < 400; i += 4 {
		tr.Put(key(i), value.New(key(i)))
		set(m, string(key(i)), string(key(i)))
	}
	var sc BatchScratch

	// Sixty new keys into the four borders around w00200.
	var batch [][]byte
	for i := 170; i < 230; i++ {
		if i%4 != 0 {
			batch = append(batch, key(i))
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(batch), func(a, b int) { batch[a], batch[b] = batch[b], batch[a] })
	splits := tr.Stats().Splits
	putBatchSimple(tr, &sc, batch)
	for _, k := range batch {
		set(m, string(k), string(k))
	}
	if tr.Stats().Splits-splits < 2 {
		t.Fatal("the batch did not split the borders its hints named")
	}
	checkInvariants(t, tr)
	checkTree(t, tr, m)

	// The first key applied is the batch's lowest. Its apply unlinks the
	// border three to the right — the one the batch's other key is hinted to.
	first, _ := ownerOf(tr, key(0))
	victim := first.next.Load().next.Load().next.Load()
	victims := layer0Keys(victim)
	back := victims[len(victims)/2]
	tr.PutBatchInto([][]byte{back, key(0)}, &sc, func(i int, old *value.Value) *value.Value {
		if i == 1 {
			for _, k := range victims {
				tr.Remove(k)
				m.Remove(string(k), 0)
			}
			if !occ.Deleted(victim.h.Load()) {
				t.Fatal("the victim was kept: pick a border that is not its parent's leftmost child")
			}
		}
		return value.New([]byte("again"))
	})
	set(m, string(back), "again")
	set(m, string(key(0)), "again")
	checkInvariants(t, tr)
	checkTree(t, tr, m)
}

// TestHintsStaleUnderRestructuring is the concurrent case: batches of puts
// (half of them with lookups mixed in) while other goroutines fill and drain
// the stretches between the batches' keys — splitting borders, emptying and
// unlinking them, creating layers, emptying and collapsing them — so that
// hints die between a batch's wave and its locks in every way they can. Each
// writer owns its keys and removes half of what it has just put, so that most
// of them are absent when the next wave comes by and the border it ends at is
// one the churn can empty. What a writer last did to a key is what the tree
// must show it — a put that landed in an unlinked border shows up as an apply
// handed nil for a key its writer stored — and at the end the churn is drained
// and the tree must be exactly the writers' keys, structurally sound.
func TestHintsStaleUnderRestructuring(t *testing.T) {
	tr := New()
	family := func(i int) []byte {
		switch i % 4 {
		case 0:
			return []byte(fmt.Sprintf("h%04d", i))
		case 1:
			return []byte(fmt.Sprintf("hintedpf%04d", i)) // layer 1 under "hintedpf"
		case 2:
			return []byte(fmt.Sprintf("hintedpfhintedpf%04d+suffix", i)) // layer 2
		}
		// Eight keys to a slice, none of them stable: a twig that grows into
		// a layer of one border, emptied and collapsed, over and over.
		return []byte(fmt.Sprintf("coll%04d-%04d", i/32, i))
	}
	const space = 800
	keys := make([][]byte, space)
	for i := range keys {
		keys[i] = family(i)
	}
	const writers = 2
	// Few of the keys are the writers', so that whole borders between them
	// fill and empty; owner says whose they are.
	stable := func(i int) bool { return i%4 != 3 && i%40 < 4 }
	owner := func(i int) int { return i % 40 % writers }
	var stop atomic.Bool
	var churn, batchers sync.WaitGroup
	for c := 0; c < 2; c++ {
		churn.Add(1)
		go func(seed int64) {
			defer churn.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				lo := rng.Intn(space - 120)
				for i := lo; i < lo+120; i++ {
					if !stable(i) {
						tr.Put(keys[i], value.New(keys[i]))
					}
				}
				for i := lo; i < lo+120; i++ {
					if !stable(i) {
						tr.Remove(keys[i])
					}
				}
				tr.Maintain()
			}
		}(nextSeed())
	}
	models := make([]*model.Model, writers)
	var batches atomic.Int64
	for w := 0; w < writers; w++ {
		models[w] = model.New()
		batchers.Add(1)
		go func(w int, seed int64) {
			defer batchers.Done()
			rng := rand.New(rand.NewSource(seed))
			mw := models[w]
			var mine []int
			for i := 0; i < space; i++ {
				if stable(i) && owner(i) == w {
					mine = append(mine, i)
				}
			}
			var sc BatchScratch
			const n = 48 // three waves: the first group's hints are two waves old when used
			batch, ids := make([][]byte, n), make([]int, n)
			put, vals, found := make([]bool, n), make([]*value.Value, n), make([]bool, n)
			for round := 0; !stop.Load(); round++ {
				mixed := round%2 == 1
				for j := range batch {
					ids[j] = mine[rng.Intn(len(mine))]
					batch[j], put[j] = keys[ids[j]], !mixed || j%3 != 0
				}
				apply := func(j int, old *value.Value) *value.Value {
					if want, ok := valueOf(mw, string(batch[j])); ok != (old != nil) || ok && string(old.Col(0)) != want {
						t.Errorf("key %q: apply was shown %v, the writer last stored %q (%v)", batch[j], old, want, ok)
					}
					s := fmt.Sprintf("%s@%d.%d", batch[j], round, j)
					set(mw, string(batch[j]), s)
					return value.New([]byte(s))
				}
				if !mixed {
					tr.PutBatchInto(batch, &sc, apply)
				} else {
					before, had := make([]string, n), make([]bool, n)
					for j, k := range batch {
						before[j], had[j] = valueOf(mw, string(k))
					}
					tr.BatchInto(batch, put, vals, found, &sc, apply)
					for j := range batch {
						if want, ok := before[j], had[j]; !put[j] && (ok != found[j] || ok && string(vals[j].Col(0)) != want) {
							t.Errorf("key %q: the batch's lookup found %v, want the value from before the batch %q (%v)", batch[j], vals[j], want, ok)
						}
					}
				}
				for j := range batch {
					if want, ok := valueOf(mw, string(batch[j])); ok && put[j] && rng.Intn(2) == 0 {
						if old, ok := tr.Remove(batch[j]); !ok || string(old.Col(0)) != want {
							t.Errorf("key %q: removed %v, the writer last stored %q", batch[j], old, want)
						}
						mw.Remove(string(batch[j]), 0)
					}
				}
				if t.Failed() {
					return
				}
				batches.Add(1)
			}
		}(w, nextSeed())
	}
	exercised := func(s StatsSnapshot) bool {
		return s.Splits > 0 && s.NodeDeletes > 0 && s.LayerCollapses > 0
	}
	for deadline := time.Now().Add(20 * time.Second); !t.Failed() && time.Now().Before(deadline); {
		if batches.Load() >= 3000 && exercised(tr.Stats()) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	batchers.Wait()
	churn.Wait()
	if s := tr.Stats(); !exercised(s) {
		t.Fatalf("after %d batches the run had not restructured the region: %+v", batches.Load(), s)
	}
	for i, k := range keys {
		if !stable(i) {
			tr.Remove(k)
		}
	}
	tr.Maintain()
	checkInvariants(t, tr)
	checkTree(t, tr, models...)
}

// TestBatchIntoLookupsAndPutBefore pins the two things BatchInto promises a
// caller that mixes kinds: a lookup is answered from before every put of the
// batch, and PutBefore names the last earlier put of the lookup's own key —
// whole key, not slice: "samesliceA" and "samesliceB" share their first eight
// bytes, "ab" and "ab\x00" their slice.
func TestBatchIntoLookupsAndPutBefore(t *testing.T) {
	tr := New()
	tr.Put([]byte("k"), value.New([]byte("k0")))
	tr.Put([]byte("samesliceA"), value.New([]byte("A0")))
	keys := [][]byte{
		[]byte("k"), []byte("k"), []byte("samesliceB"), []byte("k"), []byte("samesliceA"),
		[]byte("k"), []byte("ab"), []byte("ab\x00"), []byte("samesliceB"), []byte("absent"),
	}
	put := []bool{false, true, true, false, false, true, true, false, false, false}
	vals, found := make([]*value.Value, len(keys)), make([]bool, len(keys))
	var sc BatchScratch
	tr.BatchInto(keys, put, vals, found, &sc, func(i int, old *value.Value) *value.Value {
		return value.New([]byte(fmt.Sprintf("put%d", i)))
	})
	wantVal := map[int]string{0: "k0", 3: "k0", 4: "A0"}
	wantBefore := map[int]int{0: -1, 3: 1, 4: -1, 7: -1, 8: 2, 9: -1}
	for i := range keys {
		if put[i] {
			continue
		}
		if want, ok := wantVal[i]; ok != found[i] || ok && string(vals[i].Col(0)) != want {
			t.Errorf("lookup %d of %q: %v found=%v, want %q (%v)", i, keys[i], vals[i], found[i], want, ok)
		}
		if got := sc.PutBefore(keys, i); got != wantBefore[i] {
			t.Errorf("PutBefore(%d) of %q = %d, want %d", i, keys[i], got, wantBefore[i])
		}
	}
	mustGet(t, tr, "k", "put5")
	mustGet(t, tr, "samesliceB", "put2")
	mustGet(t, tr, "ab", "put6")
	mustMiss(t, tr, "ab\x00")

	// Against the definition, on keys that collide on purpose.
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(40)
		keys, put := make([][]byte, n), make([]bool, n)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("prefix00%d", rng.Intn(6)))[:6+rng.Intn(4)]
			put[i] = rng.Intn(2) == 0
		}
		vals, found := make([]*value.Value, n), make([]bool, n)
		tr.BatchInto(keys, put, vals, found, &sc, func(i int, old *value.Value) *value.Value { return old })
		for i := range keys {
			want := -1
			for j := 0; j < i; j++ {
				if put[j] && bytes.Equal(keys[j], keys[i]) {
					want = j
				}
			}
			if got := sc.PutBefore(keys, i); got != want {
				t.Fatalf("round %d: PutBefore(%d) = %d, want %d (keys %q, put %v)", round, i, got, want, keys, put)
			}
		}
	}
}

// TestBatchScratchDropsHints pins that a scratch between batches keeps no
// border reachable through its hints, and keeps the slice it grew.
func TestBatchScratchDropsHints(t *testing.T) {
	tr := New()
	var sc BatchScratch
	keys := waveTestKeys()
	putBatchSimple(tr, &sc, keys)
	grown := cap(sc.hints)
	if grown < len(keys) {
		t.Fatalf("hints cap %d after a batch of %d", grown, len(keys))
	}
	for i, h := range sc.hints[:grown] {
		if h != (borderHint{}) {
			t.Fatalf("hint %d survives its batch: %+v", i, h)
		}
	}
	putBatchSimple(tr, &sc, keys[:len(keys)/2])
	if cap(sc.hints) != grown {
		t.Fatalf("hints reallocated for a smaller batch: cap %d, was %d", cap(sc.hints), grown)
	}
}
