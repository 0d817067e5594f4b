package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/value"
)

// The censuses build the trees the benchmark's datasets make and print
// what they are made of: nodes, twigs and bytes by kind and layer, each
// object counted as the size class the allocator gives it.

// benchSeed is the benchmark's subSeed(seed, streamKeys): the seed of the
// generator its datasets' keys come from (benchmark/workloads.go).
func benchSeed(seed int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// decimalKeys is the size of the benchmark's decimal dataset.
const decimalKeys = 2_000_000

// decimalDataset returns the benchmark's get-uniform dataset: 2 M distinct
// 1-to-10-byte decimal keys, seed 1, in load order.
func decimalDataset() [][]byte {
	rng := rand.New(rand.NewSource(benchSeed(1)))
	seen := make(map[int64]bool, decimalKeys)
	keys := make([][]byte, 0, decimalKeys)
	for len(keys) < decimalKeys {
		if i := rng.Int63n(1 << 31); !seen[i] {
			seen[i] = true
			keys = append(keys, strconv.AppendInt(nil, i, 10))
		}
	}
	return keys
}

// census logs tr's census and returns the walk and its node bytes, values
// excluded. It fails t if the walk finds an invariant broken.
func census(t *testing.T, tr *Tree) (ShapeStats, int) {
	t.Helper()
	s, err := tr.shape(sizeClass)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	total := 0
	for d, l := range s.Layers {
		fmt.Fprintf(&b, "layer %d: %d trees (%d twigs), %d keys (%d in twigs), %d borders (%d of %d slots used), %d interiors; bytes: borders %d, interiors %d, bags %d, twigs %d\n",
			d, l.Trees, l.Twigs, l.Keys, l.TwigKeys, l.BorderNodes, l.borderSlots(), l.BorderNodes*width, l.InteriorNodes, l.BorderBytes, l.InteriorBytes, l.BagBytes, l.TwigBytes)
		total += l.NodeBytes()
	}
	fmt.Fprintf(&b, "node bytes per key %.2f; layer-1 key share %.3f, keys per layer-1 tree %.2f (paper §6.2: 0.33 and 2.3 at 140 M keys)",
		float64(total)/float64(s.TotalKeys()), s.KeysInLayer(1), s.AvgKeysPerTree(1))
	t.Log("\n" + b.String())
	return s, total
}

// TestDecimalCensus builds the tree of the benchmark's get-uniform dataset
// in load order. Random inserts rarely continue an ascending run, so the
// run rule must leave this tree as §4.3's rule alone built it: layer 0's
// 182 685 borders and 17 656 interiors, to within a thousandth.
func TestDecimalCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 2 M keys")
	}
	tr, v := New(), value.New([]byte("8 bytes."))
	for _, k := range decimalDataset() {
		tr.Put(k, v)
	}
	s, total := census(t, tr)
	if s.TotalKeys() != decimalKeys || len(s.Layers) != 2 {
		t.Fatalf("%d keys in %d layers, want %d in 2", s.TotalKeys(), len(s.Layers), decimalKeys)
	}
	// A slice that five keys share is a real layer; the dataset has one or two.
	if l := s.Layers[1]; l.BorderNodes > 10 || l.Twigs < 50_000 || l.Trees-l.Twigs != l.BorderNodes {
		t.Fatalf("layer 1 is not twigs: %+v", l)
	}
	near := func(got, want int) bool { return got*1000 >= want*999 && got*1000 <= want*1001 }
	if l := s.Layers[0]; !near(l.BorderNodes, 182_685) || !near(l.InteriorNodes, 17_656) {
		t.Errorf("layer 0 has %d borders and %d interiors, want 182 685 and 17 656 within 0.1 %%", l.BorderNodes, l.InteriorNodes)
	}
	if perKey := float64(total) / decimalKeys; perKey > 35.30 {
		t.Errorf("%.2f node bytes per key, want <= 35.30", perKey)
	}
	// What the walk adds up is what the heap holds: the tree alone, its one
	// shared value aside, within a hundredth.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runtime.KeepAlive(tr)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if heap := float64(before.HeapAlloc - after.HeapAlloc); heap < 0.99*float64(total) || heap > 1.01*float64(total) {
		t.Errorf("the walk counts %d B of nodes, freeing the tree returned %.0f B", total, heap)
	}
}

// TestRecordCensus builds the tree of the benchmark's mixed-zipf dataset: 1 M
// MYCSB keys "user<i>", in load order. Each of the 9 000 slices "user1000" …
// "user9999" is a layer-1 tree of 110 keys, and the order fills it with ten
// keys "0" … "9" and then, after each key d, the run "d0" … "d9": ascending
// runs inserted in the middle of a border, not at the layer's end, so §4.3's
// rule never sees them and the run rule does.
func TestRecordCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 1 M keys")
	}
	const keys = 1_000_000
	tr := New()
	v := value.New([]byte("a value"))
	for i := uint64(0); i < keys; i++ {
		tr.Put(strconv.AppendUint([]byte("user"), i, 10), v)
	}
	s, _ := census(t, tr)
	if s.TotalKeys() != keys || len(s.Layers) != 2 || s.Layers[1].Trees != 9_000 {
		t.Fatalf("%d keys in %d layers, want %d in 2 with 9 000 layer-1 trees", s.TotalKeys(), len(s.Layers), keys)
	}
	// A 50/50 split leaves 12 borders of 9.2 keys a tree; filling the runs'
	// borders leaves 10 of 11.
	l := s.Layers[1]
	if fill := float64(l.borderSlots()) / float64(l.BorderNodes); l.BorderNodes > 91_000 || fill < 10.9 {
		t.Errorf("layer 1 has %d borders, %.2f slots used in each; want <= 91 000 and >= 10.9", l.BorderNodes, fill)
	}
}

// TestRestoreCensus restores the decimal dataset as recovery does
// (kvstore's restoreRange): the keys in order, cut into parts of adjacent
// keys, each part put by a goroutine of its own in 256-key PutBatchInto
// chunks. A part is an ascending run through borders that
// have a successor — the next part's — so the run rule, not §4.3's, is what
// packs them; a restored tree of 2 or 4 parts must be layer-0 borders full
// to 14.5 of 15 slots and at most 28 node bytes a key (a 50/50 split left
// 10.5 and 37.6 at 2 parts, 9.1 and 43.0 at 4).
func TestRestoreCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 2 M keys twice")
	}
	v := value.New([]byte("8 bytes."))
	keys := decimalDataset()
	slices.SortFunc(keys, bytes.Compare)
	for _, parts := range []int{2, 4} {
		t.Run(fmt.Sprintf("parts%d", parts), func(t *testing.T) {
			tr := New()
			var wg sync.WaitGroup
			for p := 0; p < parts; p++ {
				part := keys[p*len(keys)/parts : (p+1)*len(keys)/parts]
				wg.Add(1)
				go func() {
					defer wg.Done()
					var sc BatchScratch
					for base := 0; base < len(part); base += 256 {
						tr.PutBatchInto(part[base:min(base+256, len(part))], &sc, func(int, *value.Value) *value.Value { return v })
					}
				}()
			}
			wg.Wait()
			s, total := census(t, tr)
			if s.TotalKeys() != decimalKeys {
				t.Fatalf("%d keys restored, want %d", s.TotalKeys(), decimalKeys)
			}
			perKey := float64(total) / decimalKeys
			l := s.Layers[0]
			if fill := float64(l.borderSlots()) / float64(l.BorderNodes); fill < 14.5 || perKey > 28 {
				t.Errorf("layer-0 borders hold %.2f of %d slots and the tree %.2f node bytes a key; want >= 14.5 and <= 28", fill, width, perKey)
			}
		})
	}
}

// sizeClasses are the Go allocator's small-object sizes up to 2 KiB
// (runtime/sizeclasses.go); TestSizeClass checks them against the runtime.
var sizeClasses = [...]int{
	8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224, 240, 256,
	288, 320, 352, 384, 416, 448, 480, 512, 576, 640, 704, 768, 896, 1024, 1152, 1280,
	1408, 1536, 1792, 2048,
}

// sizeClass is the heap bytes an allocation of n bytes takes: what the
// censuses have the shape walk count an object as. Two ends are
// approximate: pointer-free objects under 16 B — a twig's remainders, when
// they just miss lying in the twig — share a 16-byte block with their like,
// so their class is an upper bound; and past the table — a bag of long
// suffixes — it is n itself, the classes there wasting at most an eighth.
func sizeClass(n int) int {
	if n == 0 {
		return 0
	}
	for _, c := range sizeClasses {
		if n <= c {
			return c
		}
	}
	return n
}

// TestSizeClass checks the size-class table against the allocator, on the
// sizes the shape walk asks about and on each class's own edges. Allocation
// elsewhere in the process can only add to a reading, so each size reads
// the least of several repetitions.
func TestSizeClass(t *testing.T) {
	var sink [][]byte
	// From 16 up: smaller pointer-free objects share a 16-byte block.
	for _, n := range []int{16, 17, 33, 48, 49, 65, 147, 272, 312, 513, 1025, 2048} {
		const objs, reps = 4096, 5
		var per float64
		for r := range reps {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			sink = make([][]byte, objs)
			for i := range sink {
				sink[i] = make([]byte, n)
			}
			runtime.ReadMemStats(&after)
			if got := float64(after.TotalAlloc-before.TotalAlloc-uint64(24*objs)) / objs; r == 0 || got < per {
				per = got
			}
		}
		if want := float64(sizeClass(n)); per < want-1 || per > want+1 {
			t.Errorf("%d-byte objects take %.1f B each, sizeClass says %.0f", n, per, want)
		}
	}
	runtime.KeepAlive(sink)
}
