package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/value"
)

// twigRemainders are what follows a shared slice in the twig tests' keys:
// lengths 1, 2, 8, 9 and 20, proper prefixes of one another, NUL tails, and
// several that share their own first eight bytes — so a twig that becomes a
// layer leaves a twig in it, one slice down.
var twigRemainders = []string{
	"a", "ab", "abcdefgh", "abcdefghi", "abcdefghijklmnopqrst",
	"a\x00", "a\x00\x00", "\x00", "abcdefgh\x00", "b",
	"zz", "abcdefghZ", "abcdefghijklmnopqrsu", "\x00\x00", "c", "abcdefg",
}

// twigFamilies builds keys made to live in twigs: for each of 2, 3, 4, 5 and
// 16 keys to a slice, one group in layer 0 and one two slices deep; and next
// to each group the keys that are not in its twig but are its neighbours —
// the slice itself, a prefix of it.
func twigFamilies() [][]byte {
	var keys [][]byte
	for gi, per := range []int{2, 3, 4, 5, 16} {
		for _, prefix := range []string{
			fmt.Sprintf("group%03d", gi),
			fmt.Sprintf("twodeep!group%03d", gi),
		} {
			for _, r := range twigRemainders[:per] {
				keys = append(keys, []byte(prefix+r))
			}
			keys = append(keys, []byte(prefix), []byte(prefix[:len(prefix)-1]))
		}
	}
	return keys
}

// twigModel is the sorted-map reference the differential tests compare with.
type twigModel map[string]string

func (m twigModel) from(start string, n int) []string {
	var keys []string
	for k := range m {
		if k >= start {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) > n {
		keys = keys[:n]
	}
	return keys
}

// checkScanFrom compares ScanNInto from start, stopped after n, with the model.
func checkScanFrom(t *testing.T, tr *Tree, m twigModel, start string, n int) {
	t.Helper()
	want := m.from(start, n)
	var got []string
	tr.ScanNInto([]byte(start), n, nil, func(k []byte, v *value.Value) bool {
		if m[string(k)] != string(v.Bytes()) {
			t.Fatalf("scan from %q: key %q carries %q, want %q", start, k, v.Bytes(), m[string(k)])
		}
		got = append(got, string(k))
		return len(got) < n
	})
	if fmt.Sprintf("%q", got) != fmt.Sprintf("%q", want) {
		t.Fatalf("scan from %q for %d:\n got %q\nwant %q", start, n, got, want)
	}
}

// runFamilies builds keys for ascending runs inserted in the middle of the
// borders they share with other keys: in layer 0 and two slices deep, thirty
// base keys "rn<b>" and, after six of them, a run of sixteen "rn<b>-<j>",
// each at most eight bytes past the prefix. It returns every key, and the
// runs in ascending order.
func runFamilies() (keys [][]byte, runs [][][]byte) {
	for _, prefix := range []string{"", "twodeep!twodeep!"} {
		for b := 0; b < 30; b++ {
			keys = append(keys, []byte(fmt.Sprintf("%srn%03d", prefix, b)))
			if b%5 != 2 {
				continue
			}
			var run [][]byte
			for j := 0; j < 16; j++ {
				run = append(run, []byte(fmt.Sprintf("%srn%03d-%02d", prefix, b, j)))
			}
			keys = append(keys, run...)
			runs = append(runs, run)
		}
	}
	return keys, runs
}

// TestTwigModel drives every entry point over keys built to live in twigs, and
// runs between keys of their borders, and compares each result with a sorted
// map: Put, Apply that declines, Remove, RemoveIf either way, Get,
// GetBatchInto, BatchInto with kinds mixed, scans that start inside, before
// and past a twig, and stretches of a run put in ascending order.
func TestTwigModel(t *testing.T) {
	keys, runs := runFamilies()
	keys = append(keys, twigFamilies()...)
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr, m := New(), twigModel{}
		var sc BatchScratch
		pick := func() []byte { return keys[rng.Intn(len(keys))] }
		for op := 0; op < 6000; op++ {
			k := pick()
			want, had := m[string(k)]
			switch rng.Intn(13) {
			case 0, 1, 2, 3:
				v := fmt.Sprintf("v%d", op)
				old, replaced := tr.Put(k, value.New([]byte(v)))
				if replaced != had || had && string(old.Bytes()) != want {
					t.Fatalf("seed %d op %d: Put(%q) replaced %v (%v), model had %q (%v)", seed, op, k, old, replaced, want, had)
				}
				m[string(k)] = v
			case 4:
				old, stored := tr.Apply(k, func(old *value.Value) *value.Value { return nil })
				if stored != nil || (old != nil) != had || had && string(old.Bytes()) != want {
					t.Fatalf("seed %d op %d: declined Apply(%q) saw %v, stored %v; model had %q (%v)", seed, op, k, old, stored, want, had)
				}
			case 5, 6:
				old, ok := tr.Remove(k)
				if ok != had || had && string(old.Bytes()) != want {
					t.Fatalf("seed %d op %d: Remove(%q) = %v, %v; model had %q (%v)", seed, op, k, old, ok, want, had)
				}
				delete(m, string(k))
			case 7:
				yes := rng.Intn(2) == 0
				old, ok := tr.RemoveIf(k, func(old *value.Value) bool {
					if string(old.Bytes()) != want {
						t.Fatalf("seed %d op %d: RemoveIf(%q) was shown %q, want %q", seed, op, k, old.Bytes(), want)
					}
					return yes
				})
				if ok != (had && yes) || ok && string(old.Bytes()) != want {
					t.Fatalf("seed %d op %d: RemoveIf(%q, %v) = %v, %v; model had %q (%v)", seed, op, k, yes, old, ok, want, had)
				}
				if ok {
					delete(m, string(k))
				}
			case 8:
				if v, ok := tr.Get(k); ok != had || had && string(v.Bytes()) != want {
					t.Fatalf("seed %d op %d: Get(%q) = %v, %v; model has %q (%v)", seed, op, k, v, ok, want, had)
				}
			case 9: // a batch of kinds mixed: lookups see the tree from before it
				n := 1 + rng.Intn(40)
				batch, put := make([][]byte, n), make([]bool, n)
				vals, found := make([]*value.Value, n), make([]bool, n)
				for i := range batch {
					batch[i], put[i] = pick(), rng.Intn(3) != 0
				}
				before := twigModel{}
				for k, v := range m {
					before[k] = v
				}
				decline := rng.Intn(4) == 0
				tr.BatchInto(batch, put, vals, found, &sc, func(i int, old *value.Value) *value.Value {
					if w, ok := m[string(batch[i])]; ok != (old != nil) || ok && string(old.Bytes()) != w {
						t.Fatalf("seed %d op %d: batch put %d of %q was shown %v, model has %q (%v)", seed, op, i, batch[i], old, w, ok)
					}
					if decline && i%2 == 0 {
						return nil
					}
					v := fmt.Sprintf("b%d.%d", op, i)
					m[string(batch[i])] = v
					return value.New([]byte(v))
				})
				for i, k := range batch {
					if w, ok := before[string(k)]; !put[i] && (ok != found[i] || ok && string(vals[i].Bytes()) != w) {
						t.Fatalf("seed %d op %d: batch lookup %d of %q = %v, %v; before the batch %q (%v)", seed, op, i, k, vals[i], found[i], w, ok)
					}
				}
			case 10:
				vals, found := tr.GetBatch(keys)
				for i, k := range keys {
					if w, ok := m[string(k)]; ok != found[i] || ok && string(vals[i].Bytes()) != w {
						t.Fatalf("seed %d op %d: GetBatch key %q = %v, %v; model has %q (%v)", seed, op, k, vals[i], found[i], w, ok)
					}
				}
			case 11:
				// From a key, from just before a group's slice, from inside a
				// twig between two remainders, and from past its last.
				start := string(k)
				switch rng.Intn(4) {
				case 1:
					start = start[:min(len(start), 7)]
				case 2:
					start += "\x00"
				case 3:
					start = start[:min(len(start), 8)] + "\xff"
				}
				checkScanFrom(t, tr, m, start, 1+rng.Intn(12))
			case 12: // a stretch of a run, ascending: key by key, or one batch
				r := runs[rng.Intn(len(runs))]
				from := rng.Intn(len(r) - 4)
				run := r[from:min(len(r), from+4+rng.Intn(12))]
				apply := func(i int, old *value.Value) *value.Value {
					if w, ok := m[string(run[i])]; ok != (old != nil) || ok && string(old.Bytes()) != w {
						t.Fatalf("seed %d op %d: run put %q was shown %v, model has %q (%v)", seed, op, run[i], old, w, ok)
					}
					v := fmt.Sprintf("r%d.%d", op, i)
					m[string(run[i])] = v
					return value.New([]byte(v))
				}
				if rng.Intn(2) == 0 {
					tr.PutBatchInto(run, &sc, apply)
				} else {
					for i, k := range run {
						tr.Apply(k, func(old *value.Value) *value.Value { return apply(i, old) })
					}
				}
			}
			if tr.Len() != len(m) {
				t.Fatalf("seed %d op %d: Len = %d, model has %d", seed, op, tr.Len(), len(m))
			}
			if op%500 == 499 {
				checkInvariants(t, tr)
			}
		}
		checkInvariants(t, tr)
		checkFullScan(t, tr, m)
		s := tr.Stats()
		if s.TwigCreations == 0 || s.LayerCreations == 0 || s.RunSplits == 0 {
			t.Fatalf("seed %d: %d twigs, %d layers and %d run splits: the families did not do their work", seed, s.TwigCreations, s.LayerCreations, s.RunSplits)
		}
		if shape := tr.Shape(); shape.TotalKeys() != len(m) {
			t.Fatalf("seed %d: Shape counts %d keys, the model %d", seed, shape.TotalKeys(), len(m))
		}
	}
}

// TestDeclinedWriteBuildsNothing: a conditional write that declines next to a
// suffix key of its slice, or into a twig, leaves the slot as it was.
func TestDeclinedWriteBuildsNothing(t *testing.T) {
	tr := New()
	put(tr, "sameslice-one", "1")
	decline := func(*value.Value) *value.Value { return nil }
	tr.Apply([]byte("sameslice-two"), decline)
	n, _ := tr.findBorder(tr.rootHeader(), keySlice([]byte("sameslice")))
	slot := n.perm().slot(0)
	if n.keylen(slot) != klSuffix || tr.Stats().TwigCreations != 0 {
		t.Fatal("a declined write turned a suffix key into a twig")
	}
	put(tr, "sameslice-two", "2")
	tw := n.loadLV(slot)
	tr.Apply([]byte("sameslice-three"), decline)
	if n.loadLV(slot) != tw || tr.Len() != 2 {
		t.Fatal("a declined write rebuilt a twig")
	}
}

// ownValue is the value the concurrent tests write for k at step seq: k, '@'
// and seq, so that a reader can tell a value written for its key.
func ownValue(k []byte, seq int) *value.Value { return value.New([]byte(fmt.Sprintf("%s@%d", k, seq))) }

// carriesOwn reports whether v is a value ownValue made for k.
func carriesOwn(k []byte, v *value.Value) bool {
	b := v.Bytes()
	return len(b) > len(k) && bytes.Equal(b[:len(k)], k) && b[len(k)] == '@'
}

// TestTwigsUnderConcurrency is readers against writers on keys that live in
// twigs: two writers, each owning half of a few dozen slices, grow every
// slice's twig key by key into a layer, drain it — to one key, or to none and
// the slot with it — and refill it, while a third goroutine fills and drains
// the short keys between the slices so that the borders owning the twigs
// split and are unlinked (TestHintsStaleUnderRestructuring's shape). Readers
// use Get, waves and scans. A key that is found carries a value written for
// it; a key that is never removed is always found, by a scan that passes it
// too; a scan's keys ascend strictly. The run goes on until twigs have been
// created, twigs have become layers and borders have split.
func TestTwigsUnderConcurrency(t *testing.T) {
	const groups, members, writers = 8, 6, 2
	tails := [members]string{"a", "b-and-a-tail-past-the-next-slice", "c\x00", "cc", "d", "d\x00\x00"}
	key := func(g, m int) []byte { return []byte(fmt.Sprintf("tw%06d%s", g*10, tails[m])) }
	filler := func(g, i int) []byte { return []byte(fmt.Sprintf("tw%05d%c", g, 'a'+i)) }
	// One key in every fourth slice is never removed; the other slices go
	// from suffix key to twig every time they are refilled from nothing.
	stable := func(g, m int) bool { return g%4 == 0 && m == (g/4)%members }

	tr := New()
	var stableKeys []string
	models := make([]map[string]string, writers)
	for w := range models {
		models[w] = map[string]string{}
	}
	for g := 0; g < groups; g++ {
		for m := 0; m < members; m++ {
			if stable(g, m) {
				k := key(g, m)
				tr.Put(k, ownValue(k, 0))
				stableKeys = append(stableKeys, string(k))
				models[g%writers][string(k)] = string(k) + "@0"
			}
		}
	}
	sort.Strings(stableKeys)

	var stop atomic.Bool
	var wg sync.WaitGroup
	var rounds atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			model := models[w]
			for seq := 1; !stop.Load() && !t.Failed(); seq++ {
				g := rng.Intn(groups/writers)*writers + w
				// Most rounds stay within a twig; one in four fills the slice
				// past it, into a layer.
				order := rng.Perm(members)
				if seq%4 != 0 {
					order = order[:2+rng.Intn(twigCap-1)]
				}
				for _, m := range order {
					k := key(g, m)
					old, _ := tr.Put(k, ownValue(k, seq))
					if want, ok := model[string(k)]; ok != (old != nil) || ok && string(old.Bytes()) != want {
						t.Errorf("writer %d: Put(%q) replaced %v, it last stored %q (%v)", w, k, old, want, ok)
					}
					model[string(k)] = fmt.Sprintf("%s@%d", k, seq)
				}
				// Drain: one time in three down to one key, else all the way.
				keep := -1
				if seq%3 == 0 {
					keep = order[0]
				}
				for _, m := range order {
					if k := key(g, m); m != keep && !stable(g, m) {
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
	go func(seed int64) { // the borders around the twigs fill, split, empty and go
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		for !stop.Load() {
			lo := rng.Intn(groups - 3)
			for g := lo; g < lo+4; g++ {
				for i := 0; i < 20; i++ {
					tr.Put(filler(g, i), ownValue(filler(g, i), 0))
				}
			}
			for g := lo; g < lo+4; g++ {
				for i := 0; i < 20; i++ {
					tr.Remove(filler(g, i))
				}
			}
			tr.Maintain()
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
			batch, gm := make([][]byte, n), make([][2]int, n)
			vals, found := make([]*value.Value, n), make([]bool, n)
			var buf []byte
			for !stop.Load() && !t.Failed() {
				switch r {
				case 0:
					g, m := rng.Intn(groups), rng.Intn(members)
					k := key(g, m)
					v, ok := tr.Get(k)
					check("Get", k, v, ok, stable(g, m))
				case 1:
					for i := range batch {
						gm[i] = [2]int{rng.Intn(groups), rng.Intn(members)}
						batch[i] = key(gm[i][0], gm[i][1])
					}
					tr.GetBatchInto(batch, vals, found, &sc)
					for i, k := range batch {
						check("wave", k, vals[i], found[i], stable(gm[i][0], gm[i][1]))
					}
				case 2:
					start := key(rng.Intn(groups), rng.Intn(members))
					if rng.Intn(2) == 0 {
						start = start[:8] // the slice: before its twig
					}
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
					for i := sort.SearchStrings(stableKeys, string(start)); i < len(stableKeys) && stableKeys[i] <= last; i++ {
						if !seen[stableKeys[i]] {
							t.Errorf("scan from %q to %q passed %q, which is never removed", start, last, stableKeys[i])
						}
					}
				}
			}
		}(r, nextSeed())
	}

	exercised := func(s StatsSnapshot) bool {
		return s.TwigCreations > 0 && s.LayerCreations > 0 && s.Splits > 0
	}
	// Long enough that the transitions a reader can be caught in — a few
	// nanoseconds each — are met: see CHANGES.md, PR 28, for the mutations
	// this run has to catch.
	enough := int64(400_000)
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
	if s := tr.Stats(); !exercised(s) {
		t.Fatalf("after %d rounds the run had not made twigs, layers and splits: %+v", rounds.Load(), s)
	}
	for g := 0; g < groups; g++ {
		for i := 0; i < 20; i++ {
			tr.Remove(filler(g, i))
		}
	}
	tr.Maintain()
	checkInvariants(t, tr)
	model := map[string]string{}
	for _, m := range models {
		for k, v := range m {
			model[k] = v
		}
	}
	checkFullScan(t, tr, model)
}

// TestTwigReadsAllocFree pins the read paths over twig keys — short
// remainders that lie in the twig and long ones that do not — at zero
// allocations, and an overwrite of a twig key at none of core's own.
func TestTwigReadsAllocFree(t *testing.T) {
	tr := New()
	var keys [][]byte
	for g := 0; g < 40; g++ {
		for _, tail := range []string{"1", "22", "a-remainder-longer-than-the-twig-holds"} {
			keys = append(keys, []byte(fmt.Sprintf("twig%04d%s", g, tail)))
		}
	}
	v := value.New([]byte("v"))
	for _, k := range keys {
		tr.Put(k, v)
	}
	if s := tr.Shape(); s.Layers[1].Twigs != 40 || s.Layers[1].TwigKeys != len(keys) {
		t.Fatalf("the keys are not in twigs: %+v", s.Layers)
	}
	vals, found := make([]*value.Value, len(keys)), make([]bool, len(keys))
	var sc BatchScratch
	buf := make([]byte, 0, 64)
	n := 0
	count := func([]byte, *value.Value) bool { n++; return true }
	for name, f := range map[string]func(){
		"Get": func() {
			for _, k := range keys {
				if _, ok := tr.Get(k); !ok {
					t.Fatalf("key %q missing", k)
				}
			}
		},
		"GetBatchInto": func() {
			tr.GetBatchInto(keys, vals, found, &sc)
			for i := range found {
				if !found[i] {
					t.Fatalf("key %q missing from the wave", keys[i])
				}
			}
		},
		"ScanNInto": func() {
			n = 0
			if buf = tr.ScanNInto(keys[0], ScanAll, buf, count); n != len(keys) {
				t.Fatalf("scan saw %d keys, want %d", n, len(keys))
			}
		},
		"Put over a twig key": func() {
			for _, k := range keys {
				if _, replaced := tr.Put(k, v); !replaced {
					t.Fatalf("key %q was absent", k)
				}
			}
		},
	} {
		if allocs := testing.AllocsPerRun(50, f); allocs != 0 {
			t.Errorf("%s over twig keys allocates %.1f times per run, want 0", name, allocs)
		}
	}
}

// FuzzTwigModel runs random op strings over one slice's remainders — two
// bytes an op: what to do, and to which remainder — against a sorted map.
// The remainders are short strings over {a, b, NUL}, some with a tail that
// takes them out of the twig's own eight bytes, so they are prefixes of one
// another and few enough to meet often; twelve of them can be present at
// once, so the twig grows into a layer, and drains.
func FuzzTwigModel(f *testing.F) {
	f.Add([]byte("\x00\x01\x00\x02\x00\x03\x00\x04\x00\x05\x02\x01\x03\x02\x01\x03\x01\x01\x01\x02\x01\x04\x01\x05"))
	f.Add([]byte("\x00\x10\x00\x90\x00\x11\x04\x10\x03\x00\x01\x90\x00\x55\x00\xd5\x00\x7f\x00\xff\x03\x7f"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		rem := func(b byte) string {
			r := make([]byte, 1+int(b&3))
			for i := range r {
				r[i] = "ab\x00"[int(b>>(2+2*uint(i%3)))&3%3]
			}
			if b&0x80 != 0 {
				return string(r) + "-and-a-long-tail"
			}
			return string(r)
		}
		const slice = "oneslice"
		tr, m := New(), twigModel{}
		put(tr, "oneslicd", "left")
		put(tr, "oneslicf", "right")
		m["oneslicd"], m["oneslicf"] = "left", "right"
		for i := 0; i+1 < len(ops); i += 2 {
			k := slice + rem(ops[i+1])
			want, had := m[k]
			switch ops[i] % 5 {
			case 0:
				v := fmt.Sprintf("v%d", i)
				if old, replaced := put(tr, k, v); replaced != had || had && string(old.Bytes()) != want {
					t.Fatalf("op %d: Put(%q) replaced %v (%v), model had %q (%v)", i, k, old, replaced, want, had)
				}
				m[k] = v
			case 1:
				if old, ok := tr.Remove([]byte(k)); ok != had || had && string(old.Bytes()) != want {
					t.Fatalf("op %d: Remove(%q) = %v, %v; model had %q (%v)", i, k, old, ok, want, had)
				}
				delete(m, k)
			case 2:
				if v, ok := tr.Get([]byte(k)); ok != had || had && string(v.Bytes()) != want {
					t.Fatalf("op %d: Get(%q) = %v, %v; model has %q (%v)", i, k, v, ok, want, had)
				}
			case 3:
				checkScanFrom(t, tr, m, k, 1+int(ops[i]>>4))
			case 4:
				if _, stored := tr.Apply([]byte(k), func(*value.Value) *value.Value { return nil }); stored != nil {
					t.Fatalf("op %d: a declined Apply(%q) stored %v", i, k, stored)
				}
			}
			if tr.Len() != len(m) {
				t.Fatalf("op %d: Len = %d, model has %d", i, tr.Len(), len(m))
			}
		}
		checkInvariants(t, tr)
		checkFullScan(t, tr, m)
	})
}
