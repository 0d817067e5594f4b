package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/value"
)

// TestSplitAtEveryRank fills a node with 15 keys and forces the 16th insert
// at every possible rank, verifying no key is lost.
func TestSplitAtEveryRank(t *testing.T) {
	for r := 0; r < 16; r++ {
		tr := New()
		var keys []string
		for i := 0; i < 16; i++ {
			keys = append(keys, fmt.Sprintf("k%02d", i*2))
		}
		newKey := fmt.Sprintf("k%02d", r*2+1) // lands at rank r+? among evens
		for i, k := range keys {
			if i == 15 {
				break
			}
			put(tr, k, k)
		}
		put(tr, newKey, newKey)
		for i := 0; i < 15; i++ {
			mustGet(t, tr, keys[i], keys[i])
		}
		mustGet(t, tr, newKey, newKey)
	}
}

// TestSplitLongKeys does the same with suffix-bearing keys.
func TestSplitLongKeys(t *testing.T) {
	for r := 0; r < 16; r++ {
		tr := New()
		var keys []string
		for i := 0; i < 15; i++ {
			keys = append(keys, fmt.Sprintf("longerkey-%02d-suffix", i*2))
		}
		for _, k := range keys {
			put(tr, k, k)
		}
		newKey := fmt.Sprintf("longerkey-%02d-newone", r*2+1)
		put(tr, newKey, newKey)
		for _, k := range keys {
			mustGet(t, tr, k, k)
		}
		mustGet(t, tr, newKey, newKey)
	}
}

// putAll puts each key with itself as its value.
func putAll(tr *Tree, keys ...string) {
	for _, k := range keys {
		put(tr, k, k)
	}
}

// named returns prefix+c for each byte c of cs.
func named(prefix, cs string) []string {
	keys := make([]string, len(cs))
	for i := range cs {
		keys[i] = prefix + cs[i:i+1]
	}
	return keys
}

// wantBorder checks the keys of the layer-0 border that key routes to.
func wantBorder(t *testing.T, tr *Tree, key string, want ...string) {
	t.Helper()
	n, _ := tr.findBorder(tr.rootHeader(), keySlice([]byte(key)))
	var got []string
	for _, k := range layer0Keys(n) {
		got = append(got, string(k))
	}
	if fmt.Sprintf("%q", got) != fmt.Sprintf("%q", want) {
		t.Fatalf("the border of %q holds\n%q, want\n%q", key, got, want)
	}
}

// wantSplits checks the tree's splits and the run splits among them.
func wantSplits(t *testing.T, tr *Tree, splits, runs int64) {
	t.Helper()
	if s := tr.Stats(); s.Splits != splits || s.RunSplits != runs {
		t.Fatalf("%d splits, %d of them run splits; want %d and %d", s.Splits, s.RunSplits, splits, runs)
	}
}

// TestSplitContinuesRun: an ascending run inserted in the middle of a border
// — after k0, with k2 … kc behind it — splits right after its new key once
// the two inserts before it have each landed one rank after the one before;
// the left node keeps the run, which fills it to its end. There the border
// has a successor, so §4.3's rule does not apply, and the run's next key
// starts a node of its own.
func TestSplitContinuesRun(t *testing.T) {
	tr := New()
	tail := named("k", "23456789abc")
	putAll(tr, "k0")
	putAll(tr, tail...)
	putAll(tr, named("k0", "123")...) // ranks 1, 2, 3: the node is full
	wantSplits(t, tr, 0, 0)
	put(tr, "k04", "k04")
	wantBorder(t, tr, "k0", append([]string{"k0"}, named("k0", "1234")...)...)
	wantBorder(t, tr, "k2", tail...)
	wantSplits(t, tr, 1, 1)

	putAll(tr, named("k0", "56789abcde")...)
	full := append([]string{"k0"}, named("k0", "123456789abcde")...)
	wantBorder(t, tr, "k0", full...)
	wantSplits(t, tr, 1, 1)

	put(tr, "k0f", "k0f")
	wantBorder(t, tr, "k0", full...)
	wantBorder(t, tr, "k0f", "k0f")
	wantBorder(t, tr, "k2", tail...)
	wantSplits(t, tr, 2, 2)
	put(tr, "k0g", "k0g")
	wantBorder(t, tr, "k0f", "k0f", "k0g")
	checkInvariants(t, tr)
}

// TestSplitAdjacentInsertsAreNotARun: a split whose new key follows none,
// one or two adjacent inserts — so that at most one of them landed one rank
// after the one before — cuts a border at the midpoint as a random insert
// does; the third such insert is the first a run split serves.
func TestSplitAdjacentInsertsAreNotARun(t *testing.T) {
	for before := 0; before <= 3; before++ {
		t.Run(fmt.Sprint(before), func(t *testing.T) {
			tr := New()
			putAll(tr, "m0")
			putAll(tr, named("m", "23456789abcdef")[:14-before]...)
			run := named("m0", "1234")
			putAll(tr, run[:before]...)
			wantSplits(t, tr, 0, 0)
			put(tr, run[before], run[before])
			left, runs := 8, int64(0) // the midpoint of 16
			if before == 3 {
				left, runs = 5, 1 // m0 and the run
			}
			n, _ := tr.findBorder(tr.rootHeader(), keySlice([]byte("m0")))
			if got := n.perm().count(); got != left {
				t.Errorf("the left node keeps %d keys, want %d", got, left)
			}
			wantSplits(t, tr, 1, runs)
			checkInvariants(t, tr)
		})
	}
}

// g returns the key of n bytes, 1 to 8, of the slice "g": "g" and NULs. All
// of them and gLong share one slice.
func g(n int) string { return "g" + strings.Repeat("\x00", n-1) }

const gLong = "g\x00\x00\x00\x00\x00\x00\x00tail"

// TestSplitRunInSliceGroup: a run's cut that falls inside a slice group — a
// slice's keys of one to eight bytes and its long key, which must share a
// node (§4.2) — moves to the group's edge, and both sides keep keys. In the
// middle of a node the cut after g(4) moves past the group; at the end of a
// node with a successor the cut before gLong moves in front of the group,
// which becomes the right node.
func TestSplitRunInSliceGroup(t *testing.T) {
	t.Run("middle", func(t *testing.T) {
		tr := New()
		putAll(tr, "a", "b", "c", "d", g(6), g(7), g(8), gLong, "h", "i", "j", "k")
		putAll(tr, g(1), g(2), g(3)) // ranks 4, 5, 6
		put(tr, g(4), g(4))
		wantBorder(t, tr, "a", "a", "b", "c", "d", g(1), g(2), g(3), g(4), g(6), g(7), g(8), gLong)
		wantBorder(t, tr, "h", "h", "i", "j", "k")
		wantSplits(t, tr, 1, 1)
		checkInvariants(t, tr)
	})
	t.Run("end", func(t *testing.T) {
		tr := New()
		prior := named("p", "0123456789abcde")
		putAll(tr, prior...)
		putAll(tr, "pf") // §4.3's append, a run's too: it goes alone
		for _, k := range prior {
			tr.Remove([]byte(k))
		}
		// The emptied leftmost border, its slots to be reused, has a successor.
		putAll(tr, "a", "b", "c", "d", "e", "f", "f2")
		for i := 1; i <= 8; i++ {
			putAll(tr, g(i))
		}
		wantSplits(t, tr, 1, 1)
		put(tr, gLong, gLong)
		wantBorder(t, tr, "a", "a", "b", "c", "d", "e", "f", "f2")
		wantBorder(t, tr, g(1), g(1), g(2), g(3), g(4), g(5), g(6), g(7), g(8), gLong)
		wantBorder(t, tr, "pf", "pf")
		wantSplits(t, tr, 2, 2)
		checkInvariants(t, tr)
	})
}

// TestSplitPointNeverEmptiesASide: a node's run state outlives removes,
// which shift ranks under it, and slot reuse, so a split may read a state
// that says nothing true about the node. Whatever it says, the split leaves
// keys on both sides and no slice group across them: every state byte at
// every rank, rightmost or not, over keys with and without slice groups;
// then a tree of runs, removes and reinserts, checked against a map.
func TestSplitPointNeverEmptiesASide(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var ents [width + 1]borderEntry
	for trial := 0; trial < 40; trial++ {
		group := 0
		for i := range ents {
			// After the first trial, a key may share the slice before it, up
			// to the nine keys one nonzero slice can hold.
			if i == 0 || trial == 0 || group == 9 || rng.Intn(2) == 0 {
				ents[i].slice, group = uint64(i), 0
			} else {
				ents[i].slice = ents[i-1].slice
			}
			group++
		}
		for state := 0; state < 256; state++ {
			n := &borderNode{run: uint8(state)}
			for rank := 0; rank <= width; rank++ {
				for _, rightmost := range []bool{false, true} {
					at := splitPoint(ents[:], rank, n.continuesRun(rank), rightmost)
					if at <= 0 || at >= len(ents) || ents[at-1].slice == ents[at].slice {
						t.Fatalf("state %#x, rank %d, rightmost %v: cut at %d of %v", state, rank, rightmost, at, ents)
					}
				}
			}
		}
	}

	tr, model := New(), map[string]string{}
	for op := 0; op < 3000; op++ {
		start, length := rng.Intn(300), 2+rng.Intn(8)
		for i := start; i < start+length; i++ {
			k := fmt.Sprintf("r%03d", i)
			put(tr, k, k)
			model[k] = k
		}
		for j := rng.Intn(5); j > 0; j-- {
			k := fmt.Sprintf("r%03d", rng.Intn(310))
			tr.Remove([]byte(k))
			delete(model, k)
		}
		if op%100 == 99 {
			checkInvariants(t, tr)
		}
	}
	checkInvariants(t, tr)
	checkFullScan(t, tr, model)
	if s := tr.Stats(); s.RunSplits == 0 || s.Splits == s.RunSplits || s.SlotReuses == 0 {
		t.Fatalf("the runs made %d run splits of %d and reused %d slots", s.RunSplits, s.Splits, s.SlotReuses)
	}
}

// TestRunsUnderConcurrency is readers against writers on ascending runs, the
// shape of TestHintsStaleUnderRestructuring. Two writers each put stretches
// of runs — in layer 0 and two slices deep, between base keys that are never
// removed — in ascending order, key by key or as one batch, and mostly
// remove them again; a remover fills and drains, in random order, the keys
// that sort after each run, so that the borders the runs fill split at a
// run's new key, split at their midpoint, and empty and go. Readers use Get,
// waves and scans. A key that is found carries a value written for it; once
// the writers have put them, base keys are always found, by a scan that
// passes them too; a scan's keys ascend strictly. The run goes on until run
// splits and plain splits have occurred; the layer two slices down, whose
// base keys the writers put under the readers, cannot hold them in one
// border, so its root has split.
func TestRunsUnderConcurrency(t *testing.T) {
	const bases, runLen, writers = 60, 16, 2
	prefixes := []string{"", "twodeep!runfam!!"}
	base := func(p, b int) []byte { return []byte(fmt.Sprintf("%srb%03d", prefixes[p], b)) }
	runKey := func(p, b, j int) []byte { return []byte(fmt.Sprintf("%srb%03d-%02d", prefixes[p], b, j)) }
	filler := func(p, b, i int) []byte { return []byte(fmt.Sprintf("%srb%03d.%d", prefixes[p], b, i)) }
	anyKey := func(rng *rand.Rand) ([]byte, bool) {
		p, b := rng.Intn(len(prefixes)), rng.Intn(bases)
		switch rng.Intn(3) {
		case 0:
			return base(p, b), true
		case 1:
			return runKey(p, b, rng.Intn(runLen)), false
		}
		return filler(p, b, rng.Intn(10)), false
	}

	tr := New()
	var stableKeys []string
	for p := range prefixes {
		for b := 0; b < bases; b++ {
			stableKeys = append(stableKeys, string(base(p, b)))
		}
	}
	sort.Strings(stableKeys)

	var stop atomic.Bool
	var basesIn, rounds atomic.Int64
	var wg sync.WaitGroup
	models := make([]map[string]string, writers)
	for w := range models {
		models[w] = map[string]string{}
		wg.Add(1)
		go func(w int, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			model := models[w]
			for _, i := range rng.Perm(len(prefixes) * bases) {
				if p, b := i%len(prefixes), i/len(prefixes); b%writers == w {
					k := base(p, b)
					tr.Put(k, ownValue(k, 0))
					model[string(k)] = string(k) + "@0"
				}
			}
			basesIn.Add(1)
			var sc BatchScratch
			for seq := 1; !stop.Load() && !t.Failed(); seq++ {
				p, b := rng.Intn(len(prefixes)), rng.Intn(bases/writers)*writers+w
				from := rng.Intn(runLen - 4)
				var keys [][]byte
				for j := from; j < min(runLen, from+4+rng.Intn(runLen)); j++ {
					keys = append(keys, runKey(p, b, j))
				}
				apply := func(i int, old *value.Value) *value.Value {
					k := keys[i]
					if want, ok := model[string(k)]; ok != (old != nil) || ok && string(old.Bytes()) != want {
						t.Errorf("writer %d: the put of %q was shown %v, it last stored %q (%v)", w, k, old, want, ok)
					}
					model[string(k)] = fmt.Sprintf("%s@%d", k, seq)
					return ownValue(k, seq)
				}
				if seq%2 == 0 {
					tr.PutBatchInto(keys, &sc, apply)
				} else {
					for i, k := range keys {
						tr.Apply(k, func(old *value.Value) *value.Value { return apply(i, old) })
					}
				}
				if rng.Intn(4) != 0 {
					for _, k := range keys {
						if old, ok := tr.Remove(k); !ok || string(old.Bytes()) != model[string(k)] {
							t.Errorf("writer %d: Remove(%q) = %v, %v; it last stored %q", w, k, old, ok, model[string(k)])
						}
						delete(model, string(k))
					}
				}
				rounds.Add(1)
			}
		}(w, nextSeed())
	}
	wg.Add(1)
	go func(seed int64) { // the remover: the borders around the runs fill, split, empty and go
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		for !stop.Load() {
			p, lo := rng.Intn(len(prefixes)), rng.Intn(bases-4)
			var keys [][]byte
			for b := lo; b < lo+4; b++ {
				for i := 0; i < 10; i++ {
					keys = append(keys, filler(p, b, i))
				}
			}
			rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			for _, k := range keys {
				tr.Put(k, ownValue(k, 0))
			}
			rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			for _, k := range keys {
				tr.Remove(k)
			}
		}
	}(nextSeed())

	check := func(who string, k []byte, v *value.Value, found, mustBe bool) {
		if found && !carriesOwn(k, v) {
			t.Errorf("%s: key %q carries %q", who, k, v.Bytes())
		}
		if !found && mustBe {
			t.Errorf("%s: key %q is never removed and was not found", who, k)
		}
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var sc BatchScratch
			const n = 32
			batch, stable := make([][]byte, n), make([]bool, n)
			vals, found := make([]*value.Value, n), make([]bool, n)
			var buf []byte
			for !stop.Load() && !t.Failed() {
				ready := basesIn.Load() == writers
				switch r {
				case 0:
					k, isBase := anyKey(rng)
					v, ok := tr.Get(k)
					check("Get", k, v, ok, ready && isBase)
				case 1:
					for i := range batch {
						batch[i], stable[i] = anyKey(rng)
					}
					tr.GetBatchInto(batch, vals, found, &sc)
					for i, k := range batch {
						check("wave", k, vals[i], found[i], ready && stable[i])
					}
				case 2:
					start, _ := anyKey(rng)
					var prev, last string
					seen := map[string]bool{}
					taken := 0
					buf = tr.ScanNInto(start, 40, buf, func(k []byte, v *value.Value) bool {
						if prev != "" && string(k) <= prev {
							t.Errorf("scan from %q: %q after %q", start, k, prev)
						}
						check("scan", k, v, true, false)
						prev, last = string(k), string(k)
						seen[last] = true
						taken++
						return taken < 40
					})
					if taken < 40 {
						last = "\xff" // the scan reached the end of the tree
					}
					for i := sort.SearchStrings(stableKeys, string(start)); ready && i < len(stableKeys) && stableKeys[i] <= last; i++ {
						if !seen[stableKeys[i]] {
							t.Errorf("scan from %q to %q passed %q, which is never removed", start, last, stableKeys[i])
						}
					}
				}
			}
		}(r, nextSeed())
	}

	exercised := func(s StatsSnapshot) bool { return s.RunSplits > 0 && s.Splits > s.RunSplits }
	enough := int64(20_000)
	if testing.Short() {
		enough /= 10
	}
	for deadline := time.Now().Add(10 * time.Second); !t.Failed() && time.Now().Before(deadline); {
		if rounds.Load() >= enough && exercised(tr.Stats()) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	// Nothing deletes an interior but Maintain, which nobody ran: each one is
	// a root's split or an interior's, so what the splits leave beyond them
	// and the run splits were border splits at the midpoint.
	s, shape := tr.Stats(), tr.Shape()
	interiors := 0
	for _, l := range shape.Layers {
		interiors += l.InteriorNodes
	}
	if len(shape.Layers) < 3 || shape.Layers[2].InteriorNodes == 0 || s.RunSplits == 0 || s.Splits-s.RunSplits <= int64(interiors) {
		t.Fatalf("after %d rounds: %d splits, %d of them run splits, %d interiors, layer shapes %+v", rounds.Load(), s.Splits, s.RunSplits, interiors, shape.Layers)
	}
	for p := range prefixes {
		for b := 0; b < bases; b++ {
			for i := 0; i < 10; i++ {
				tr.Remove(filler(p, b, i))
			}
		}
	}
	checkInvariants(t, tr)
	model := map[string]string{}
	for _, m := range models {
		for k, v := range m {
			model[k] = v
		}
	}
	checkFullScan(t, tr, model)
}
