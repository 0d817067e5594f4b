package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/model"
	"repro/internal/value"
)

// pair is one entry getRange collects.
type pair struct {
	Key   []byte
	Value *value.Value
}

// getRange returns up to n pairs starting with the first key at or after
// start (§3: getrange), as Scan visits them.
func getRange(tr *Tree, start []byte, n int) []pair {
	if n <= 0 {
		return nil
	}
	out := make([]pair, 0, n)
	tr.Scan(start, func(k []byte, v *value.Value) bool {
		out = append(out, pair{Key: k, Value: v})
		return len(out) < n
	})
	return out
}

// layer0Keys reconstructs the keys of a quiescent layer-0 border node that
// holds inline, suffix and twig entries.
func layer0Keys(n *borderNode) [][]byte {
	var keys [][]byte
	perm := n.perm()
	for r := 0; r < perm.count(); r++ {
		slot := perm.slot(r)
		k := appendSliceBytes(nil, n.keyslice[slot].Load(), min(ordOf(n.keylen(slot)), 8))
		switch n.keylen(slot) {
		case klSuffix:
			k = append(k, n.bag().suffix(slot)...)
		case klTwig:
			tw := (*twig)(n.loadLV(slot)).keys()
			for j := 0; j < tw.n()-1; j++ {
				keys = append(keys, append(bytes.Clone(k), tw.at(j)...))
			}
			k = append(k, tw.at(tw.n()-1)...)
		}
		keys = append(keys, k)
	}
	return keys
}

// TestScanLayerNotRescannedAfterNodeDelete: the scanner returns from a
// sub-layer that was the last entry of its border node and finds the next
// node deleted; the re-find lands on the same node, and the layer it has
// just walked must not be walked again.
func TestScanLayerNotRescannedAfterNodeDelete(t *testing.T) {
	tr := New()
	for i := 0; i < 200; i++ {
		put(tr, fmt.Sprintf("%08daa", i), "v")
	}
	n, _ := tr.findBorder(tr.rootHeader(), 0)
	for i := 0; i < 3; i++ {
		n = n.next.Load()
	}
	mine := layer0Keys(n)
	stem := mine[len(mine)-1][:8]
	trigger := string(stem) + "bb"
	put(tr, trigger, "v") // the node's last entry becomes a layer {aa, bb}
	victims := layer0Keys(n.next.Load())

	seen := map[string]int{}
	var order []string
	tr.Scan(nil, func(k []byte, _ *value.Value) bool {
		seen[string(k)]++
		order = append(order, string(k))
		if string(k) == trigger && seen[trigger] == 1 {
			for _, vk := range victims {
				if _, ok := tr.Remove(vk); !ok {
					t.Fatalf("remove %q failed", vk)
				}
			}
		}
		return true
	})
	for k, c := range seen {
		if c != 1 {
			t.Errorf("key %q emitted %d times", k, c)
		}
	}
	if !sort.StringsAreSorted(order) {
		t.Errorf("scan output not ascending")
	}
	if want := 201 - len(victims); len(seen) != want {
		t.Errorf("scan emitted %d distinct keys, want %d", len(seen), want)
	}
	checkInvariants(t, tr)
}

// TestScanSkipsCollapsedLayer: a layer whose keys are all removed, and which
// Maintain collapses, between the validation of its parent node's snapshot
// and the walker's descent into it is an empty layer, not a node to re-find
// (its deleted root is all a re-find could ever return).
func TestScanSkipsCollapsedLayer(t *testing.T) {
	tr := New()
	put(tr, "a", "v")
	layer := []string{"prefix00-u", "prefix00-v", "prefix00-w", "prefix00-x", "prefix00-y"}
	for _, k := range layer {
		put(tr, k, "v")
	}
	put(tr, "z", "v")
	var got []string
	tr.Scan(nil, func(k []byte, _ *value.Value) bool {
		got = append(got, string(k))
		if string(k) == "a" {
			for _, k := range layer {
				tr.Remove([]byte(k))
			}
			if tr.Maintain() != 1 {
				t.Fatal("layer not collapsed")
			}
		}
		return true
	})
	if fmt.Sprint(got) != "[a z]" {
		t.Fatalf("scan emitted %v, want [a z]", got)
	}
}

// TestScanIntoAllocFree pins the walker at zero allocations once the key
// buffer holds the longest key, over a range that crosses border-node
// boundaries and holds inline keys, suffix keys and a two-deep layer chain.
func TestScanIntoAllocFree(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		put(tr, fmt.Sprintf("k%04d", i), "v")                            // inline
		put(tr, fmt.Sprintf("k%04d-with-a-suffix", i), "v")              // suffix
		put(tr, fmt.Sprintf("shared-prefix-16-%04d", i), "v")            // two layers down
		put(tr, fmt.Sprintf("shared-prefix-16-%04d-and-a-tail", i), "v") // and a suffix there
	}
	if tr.Stats().Splits == 0 || tr.Stats().LayerCreations < 2 {
		t.Fatalf("tree shape: %+v", tr.Stats())
	}
	start := []byte("k0050")
	buf := make([]byte, 0, 64)
	n := 0
	fn := func(k []byte, _ *value.Value) bool { n++; return true }
	allocs := testing.AllocsPerRun(100, func() {
		n = 0
		buf = tr.ScanInto(start, buf, fn)
		if n != 300 {
			t.Fatalf("scan emitted %d keys, want 300", n)
		}
	})
	if allocs != 0 {
		t.Fatalf("ScanInto allocates %.1f times per run, want 0", allocs)
	}

	// A run of sixteen bounded scans behind the start-key wave.
	var sc BatchScratch
	starts := make([][]byte, 16)
	for i := range starts {
		starts[i] = []byte(fmt.Sprintf("k%04d", 5*i))
	}
	ten := func(k []byte, _ *value.Value) bool { n++; return n < 10 }
	allocs = testing.AllocsPerRun(100, func() {
		tr.Prefetch(starts, &sc)
		for _, s := range starts {
			n = 0
			buf = tr.ScanNInto(s, 10, buf, ten)
			if n != 10 {
				t.Fatalf("scan from %q emitted %d keys, want 10", s, n)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Prefetch and sixteen ScanNInto allocate %.1f times per run, want 0", allocs)
	}
}

// scanModelKey draws keys that stress every position the walker compares:
// lengths 0–24 straddling the 8- and 16-byte slice boundaries, trailing NUL
// bytes, and shared 8- and 16-byte prefixes.
func scanModelKey(rng *rand.Rand) []byte {
	stems := []string{"", "", "prefix08", "prefix08prefix16", "prefix08\x00\x00\x00\x00\x00\x00\x00\x00"}
	stem := stems[rng.Intn(len(stems))]
	k := make([]byte, rng.Intn(25-len(stem)))
	for i := range k {
		k[i] = "\x00\x00ab\xff"[rng.Intn(5)]
	}
	return append([]byte(stem), k...)
}

// TestScanMatchesSortedModel compares Scan, ScanInto, ScanNInto and getRange
// with the reference model's Range for random start keys (nil, empty,
// present, absent, beyond the last key) and random lengths. ScanNInto's n is
// a hint about what to fetch, not a bound: told the truth, a third of it,
// ten times it or ScanAll, the scan ends where the callback ends it.
func TestScanMatchesSortedModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr, m := New(), model.New()
		for i := 0; i < 1500; i++ {
			k := scanModelKey(rng)
			tr.Put(k, value.New(k))
			set(m, string(k), string(k))
		}
		for i := 0; i < 300; i++ { // holes, emptied nodes and collapsed layers
			k := scanModelKey(rng)
			tr.Remove(k)
			m.Remove(string(k), 0)
		}
		tr.Maintain()
		keys := m.Range("", m.Len(), 0)

		var buf []byte
		for i := 0; i < 400; i++ {
			var start []byte
			switch rng.Intn(6) {
			case 0: // nil
			case 1:
				start = []byte{}
			case 2:
				start = []byte(keys[rng.Intn(len(keys))].Key)
			case 3:
				start = []byte("\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff")
			default:
				start = scanModelKey(rng)
			}
			n := 1 + rng.Intn(40)
			if rng.Intn(8) == 0 {
				n = m.Len() + 1
			}
			var want []string
			for _, p := range m.Range(string(start), n, 0) {
				want = append(want, p.Key)
			}

			var got, gotInto []string
			tr.Scan(start, func(k []byte, v *value.Value) bool {
				if !bytes.Equal(k, v.Col(0)) {
					t.Fatalf("seed %d: key %q carries value %q", seed, k, v.Col(0))
				}
				got = append(got, string(k))
				return len(got) < n
			})
			buf = tr.ScanInto(start, buf, func(k []byte, _ *value.Value) bool {
				gotInto = append(gotInto, string(k))
				return len(gotInto) < n
			})
			var gotRange []string
			for _, kv := range getRange(tr, start, n) {
				gotRange = append(gotRange, string(kv.Key))
			}
			var gotN []string
			hint := []int{n, n/3 + 1, 10 * n, ScanAll}[i%4]
			buf = tr.ScanNInto(start, hint, buf, func(k []byte, v *value.Value) bool {
				if !bytes.Equal(k, v.Col(0)) {
					t.Fatalf("seed %d: key %q carries value %q", seed, k, v.Col(0))
				}
				gotN = append(gotN, string(k))
				return len(gotN) < n
			})
			for name, g := range map[string][]string{"Scan": got, "ScanInto": gotInto, "getRange": gotRange, "ScanNInto": gotN} {
				if fmt.Sprintf("%q", g) != fmt.Sprintf("%q", want) {
					t.Fatalf("seed %d: %s(%q, %d) = %q, want %q", seed, name, start, n, g, want)
				}
			}
		}
	}
}

// TestScanConcurrentChurn runs scanners against inserts, updates, layer
// creation and removes (with layer collapse) from several goroutines. Every
// scan must come out strictly ascending — hence without duplicates — and hold
// every key that was present throughout.
func TestScanConcurrentChurn(t *testing.T) {
	tr := New()
	var stable []string
	for i := 0; i < 400; i++ {
		stable = append(stable, fmt.Sprintf("%04d", i))
		if i%3 == 0 {
			stable = append(stable, fmt.Sprintf("%04d-with-suffix", i))
		}
	}
	sort.Strings(stable)
	for _, k := range stable {
		put(tr, k, k)
	}
	// A churn key sits beside a stable key: inline (splits the node), or
	// sharing the 8-byte slice of its suffix key (turns the slot into a layer).
	churnKey := func(rng *rand.Rand) string {
		if i, d := rng.Intn(400), rng.Intn(8); rng.Intn(2) == 0 {
			return fmt.Sprintf("%04d+%d", i, d)
		} else {
			return fmt.Sprintf("%04d-with-churn%d", i, d)
		}
	}

	var stop atomic.Bool
	var writers, scanners sync.WaitGroup
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; !stop.Load(); i++ {
				switch {
				case i%4 == 0:
					tr.Remove([]byte(churnKey(rng)))
					if i%64 == 0 {
						tr.Maintain()
					}
				case i%3 == 0: // update in place
					s := stable[rng.Intn(len(stable))]
					put(tr, s, s)
				default:
					k := churnKey(rng)
					put(tr, k, k)
				}
			}
		}(w)
	}
	const nScanners = 2
	errs := make(chan string, nScanners) // one send per scanner
	for r := 0; r < nScanners; r++ {
		scanners.Add(1)
		go func() {
			defer scanners.Done()
			var buf []byte
			for round := 0; round < 200; round++ {
				prev, first, next, bad := "", true, 0, ""
				buf = tr.ScanInto(nil, buf, func(k []byte, v *value.Value) bool {
					switch {
					case !first && string(k) <= prev:
						bad = fmt.Sprintf("scan not ascending: %q after %q", k, prev)
					case !bytes.Equal(k, v.Col(0)):
						bad = fmt.Sprintf("key %q carries value %q", k, v.Col(0))
					}
					if next < len(stable) && string(k) == stable[next] {
						next++
					}
					prev, first = string(k), false
					return bad == ""
				})
				if bad == "" && next != len(stable) {
					bad = fmt.Sprintf("scan missed stable key %q", stable[next])
				}
				if bad != "" {
					errs <- bad
					return
				}
			}
		}()
	}
	scanners.Wait()
	stop.Store(true)
	writers.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
}
