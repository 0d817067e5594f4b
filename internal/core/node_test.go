package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/occ"
	"repro/internal/value"
)

// pointerWords counts the words of t the garbage collector scans.
func pointerWords(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer:
		return 1
	case reflect.Array:
		return t.Len() * pointerWords(t.Elem())
	case reflect.Struct:
		n := 0
		for i := 0; i < t.NumField(); i++ {
			n += pointerWords(t.Field(i).Type)
		}
		return n
	}
	return 0
}

// TestNodeLayout pins what the node layout is for: a border node fits the
// 320 B size class (five 64-byte lines; the class is line-aligned), a lookup's
// fields come first in the order it reads them, and the collector scans 19
// words of it, not 33.
func TestNodeLayout(t *testing.T) {
	var b borderNode
	if sz := unsafe.Sizeof(b); sz > 320 {
		t.Errorf("borderNode is %d B, want <= 320", sz)
	}
	if sz := unsafe.Sizeof(interiorNode{}); sz > 288 {
		t.Errorf("interiorNode is %d B, want <= 288", sz)
	}
	if unsafe.Offsetof(b.h) != 0 {
		t.Error("the header must be the first field: *nodeHeader converts to the node")
	}
	order := []struct {
		name     string
		off, end uintptr
	}{
		{"h", unsafe.Offsetof(b.h), unsafe.Offsetof(b.h) + unsafe.Sizeof(b.h)},
		{"permutation", unsafe.Offsetof(b.permutation), unsafe.Offsetof(b.permutation) + unsafe.Sizeof(b.permutation)},
		{"keyslice", unsafe.Offsetof(b.keyslice), unsafe.Offsetof(b.keyslice) + unsafe.Sizeof(b.keyslice)},
		{"keylens", unsafe.Offsetof(b.keylens), unsafe.Offsetof(b.keylens) + unsafe.Sizeof(b.keylens)},
		{"lv", unsafe.Offsetof(b.lv), unsafe.Offsetof(b.lv) + unsafe.Sizeof(b.lv)},
	}
	for i, f := range order {
		if i > 0 && f.off < order[i-1].end {
			t.Errorf("%s (offset %d) comes before %s", f.name, f.off, order[i-1].name)
		}
		limit := uintptr(192) // three lines hold everything but lv
		if f.name == "lv" {
			limit = 272
		}
		if f.end > limit {
			t.Errorf("%s ends at byte %d, want <= %d", f.name, f.end, limit)
		}
	}
	if n := pointerWords(reflect.TypeOf(&b).Elem()); n != 19 {
		t.Errorf("borderNode has %d pointer words, want 19 (parent, 15 lv, next, prev, suffixes)", n)
	}

	// Exact sizes and offsets: prefetchNode's five lines, owns' prefetch of
	// the lowkey line and the size classes all rest on them.
	var in interiorNode
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"sizeof borderNode", unsafe.Sizeof(b), 312},
		{"border.permutation", unsafe.Offsetof(b.permutation), 16},
		{"border.keyslice", unsafe.Offsetof(b.keyslice), 24},
		{"border.keylens", unsafe.Offsetof(b.keylens), 144},
		{"border.lv", unsafe.Offsetof(b.lv), 152},
		{"border.next", unsafe.Offsetof(b.next), 272},
		{"border.prev", unsafe.Offsetof(b.prev), 280},
		{"border.lowSlice", unsafe.Offsetof(b.lowSlice), 288},
		{"border.suffixes", unsafe.Offsetof(b.suffixes), 296},
		{"border.usedMask", unsafe.Offsetof(b.usedMask), 304},
		{"border.run", unsafe.Offsetof(b.run), 306}, // in what was tail padding: the size holds
		{"sizeof interiorNode", unsafe.Sizeof(in), 272},
		{"interior.nkeys", unsafe.Offsetof(in.nkeys), 16},
		{"interior.keyslice", unsafe.Offsetof(in.keyslice), 24},
		{"interior.child", unsafe.Offsetof(in.child), 144},
	} {
		if f.got != f.want {
			t.Errorf("%s = %d, want %d", f.name, f.got, f.want)
		}
	}

	// A twig is one object sized by its count: 32 B and two cells for one or
	// two keys, 48 B and four for three or four, the cells at fixed offsets
	// — and the twig of two decimal keys is nothing else: their remainders
	// lie in it.
	var tw twig
	var tw4 twig4
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"sizeof twig", unsafe.Sizeof(tw), 32},
		{"sizeof twig4", unsafe.Sizeof(tw4), 48},
		{"twig.rems", unsafe.Offsetof(tw.rems), 0},
		{"twig.tiny", unsafe.Offsetof(tw.tiny), 8},
		{"twig.vals", unsafe.Offsetof(tw.vals), 16},
		{"twig4.more", unsafe.Offsetof(tw4.more), 32}, // cells 2 and 3 follow vals
		{"twig4 cell 3", uintptr(unsafe.Pointer(tw4.cell(3))) - uintptr(unsafe.Pointer(&tw4)), 40},
	} {
		if f.got != f.want {
			t.Errorf("%s = %d, want %d", f.name, f.got, f.want)
		}
	}
	if n := pointerWords(reflect.TypeOf(&tw).Elem()); n != 3 {
		t.Errorf("twig has %d pointer words, want 3 (two cells and rems)", n)
	}
	if n := pointerWords(reflect.TypeOf(&tw4).Elem()); n != twigCap+1 {
		t.Errorf("twig4 has %d pointer words, want %d (the cells and rems)", n, twigCap+1)
	}
	e := twigEntries{}
	e.insert(0, []byte("7"), unsafe.Pointer(&tw))
	if one := e.build(); one.rems != nil || one.size() != 32 {
		t.Error("a twig of one key is not the 32 B shape holding its remainder")
	}
	e.insert(1, []byte("83"), unsafe.Pointer(&tw))
	if two := e.build(); two.rems != nil || two.size() != 32 {
		t.Error("two remainders of three bytes do not lie in a 32 B twig")
	}
	e.insert(2, []byte("9"), unsafe.Pointer(&tw))
	if three := e.build(); three.rems != nil || three.size() != 48 {
		t.Error("three remainders of four bytes do not lie in a 48 B twig")
	}
	e.insert(3, []byte("99"), unsafe.Pointer(&tw))
	if small := e.build(); small.rems == nil || sizeClass(len(small.keys())) != 16 || small.size() != 48 {
		t.Error("four remainders of six bytes: want them in a 16-byte allocation of their own, beside a 48 B twig")
	}
}

// TestHeaderLayout guards the unsafe conversions between *nodeHeader and the
// concrete node types: the header must be the first field of both.
func TestHeaderLayout(t *testing.T) {
	if off := unsafe.Offsetof(borderNode{}.h); off != 0 {
		t.Fatalf("borderNode header offset = %d", off)
	}
	if off := unsafe.Offsetof(interiorNode{}.h); off != 0 {
		t.Fatalf("interiorNode header offset = %d", off)
	}
	b := newBorder(true, false)
	if b.h.border() != b {
		t.Fatal("border round trip failed")
	}
	in := newInterior(0)
	if in.h.interior() != in {
		t.Fatal("interior round trip failed")
	}
	if !occ.Border(b.h.Load()) || occ.Border(in.h.Load()) {
		t.Fatal("isborder bit wrong")
	}
	if !occ.Root(b.h.Load()) {
		t.Fatal("root bit not set")
	}
}

// TestPackedKeylens sets every slot to every key length and checks that the
// slot reads back and its fourteen neighbours keep theirs.
func TestPackedKeylens(t *testing.T) {
	n := newBorder(true, true)
	var want [width]uint32
	for round := uint32(0); round < 3; round++ {
		for slot := 0; slot < width; slot++ {
			for kl := uint32(0); kl <= klUnstable; kl++ {
				v := (kl + round) % (klUnstable + 1)
				n.setKeylen(slot, v)
				want[slot] = v
				for s := 0; s < width; s++ {
					if got := n.keylen(s); got != want[s] {
						t.Fatalf("after setKeylen(%d, %d): slot %d reads %d, want %d", slot, v, s, got, want[s])
					}
				}
			}
		}
	}
	n.h.Unlock()
}

// TestLayerTransitionNeverTearsTheUnion: readers bracket lv between two loads
// of the keylens word while a writer takes slot after slot through
// value→UNSTABLE→TWIG and on through twig→UNSTABLE→LAYER; matching key
// lengths must come with the matching kind of pointer, and Get and ScanInto
// must keep finding every key. Run under -race -cpu 2,4.
func TestLayerTransitionNeverTearsTheUnion(t *testing.T) {
	const groups = 4000
	tr := New()
	key := func(i int, c byte) []byte {
		return append([]byte(fmt.Sprintf("%08d", i)), bytes.Repeat([]byte{c}, 9)...)
	}
	first := func(i int) []byte { return key(i, 'A') }
	vals := map[unsafe.Pointer]bool{} // every value of the tree, before and after; read-only once built
	var later [][]byte
	var laterVals []*value.Value
	for i := 0; i < groups; i++ {
		v := value.New(first(i))
		vals[unsafe.Pointer(v)] = true
		tr.Put(first(i), v)
	}
	for c := byte('B'); c < 'B'+twigCap; c++ { // four more a slice: a twig, then a layer
		for i := 0; i < groups; i++ {
			v := value.New(key(i, c))
			vals[unsafe.Pointer(v)] = true
			later, laterVals = append(later, key(i, c)), append(laterVals, v)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, 3)
	fail := func(s string) {
		select {
		case errs <- s:
		default:
		}
	}
	// readSlot's bracket of one node after another, along the border list.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			n, _ := tr.findBorder(tr.rootHeader(), 0)
			for ; n != nil && !stop.Load(); n = n.next.Load() {
				v := n.h.Stable()
				perm := n.perm()
				for r := 0; r < perm.count(); r++ {
					kl, lv, _ := n.readSlot(perm.slot(r))
					if kl == klUnstable || occ.Changed(n.h.Load(), v) {
						continue
					}
					switch kl {
					case klLayer:
						if vals[lv] || !occ.Border((*nodeHeader)(lv).Load()) {
							fail("klLayer paired with a value or a twig")
						}
					case klTwig:
						// A twig's third word, cell 0, is a value's address;
						// a node's is its permutation.
						if vals[lv] || !vals[unsafe.Pointer((*twig)(lv).value(0))] {
							fail("klTwig paired with a value or a layer")
						}
					case klSuffix:
						if !vals[lv] {
							fail("klSuffix paired with a twig or a layer")
						}
					}
				}
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var buf []byte
			for i := r; !stop.Load(); i = (i + 7) % groups {
				k := first(i)
				if v, ok := tr.Get(k); !ok || !bytes.Equal(v.Col(0), k) {
					fail(fmt.Sprintf("Get(%q) lost its key mid-transition", k))
					return
				}
				seen := false
				buf = tr.ScanInto(k, buf, func(sk []byte, v *value.Value) bool {
					seen = bytes.Equal(sk, k) && bytes.Equal(v.Col(0), k)
					return false
				})
				if !seen {
					fail(fmt.Sprintf("ScanInto(%q) lost its key mid-transition", k))
					return
				}
			}
		}(r)
	}
	for i, k := range later {
		tr.Put(k, laterVals[i])
	}
	stop.Store(true)
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
	if got := tr.Stats(); got.TwigCreations != groups || got.LayerCreations != groups {
		t.Fatalf("%d twig and %d layer creations, want %d each", got.TwigCreations, got.LayerCreations, groups)
	}
	checkInvariants(t, tr)
}

// longKey is an 8-byte slice followed by a suffix of n bytes.
func longKey(slice string, n int) string {
	return fmt.Sprintf("%-8.8s", slice) + strings.Repeat(slice[:1], n)
}

// bagBytes is the size of the node's bag allocation, 0 if it has none.
func bagBytes(n *borderNode) int { return len(n.bag()) }

func TestSuffixBagCopyOnWrite(t *testing.T) {
	tr := New()
	k1, k2 := longKey("a", 100), longKey("b", 30)
	put(tr, k1, k1)
	n, _ := tr.findBorder(tr.rootHeader(), 0)
	old, oldPtr := n.bag(), n.suffixes.Load()
	slot1 := n.perm().slot(0)
	if got := old.suffix(slot1); string(got) != k1[8:] {
		t.Fatalf("bag holds %q", got)
	}
	put(tr, k2, k2)
	if n.suffixes.Load() == oldPtr {
		t.Fatal("an insert wrote into the published bag")
	}
	if got := old.suffix(slot1); string(got) != k1[8:] {
		t.Fatalf("the old bag changed under its readers: %q", got)
	}
	if want := 1 + 16 + 130; bagBytes(n) != want {
		t.Fatalf("bag is %d B, want %d (1-byte offsets)", bagBytes(n), want)
	}

	// Remove leaves the bag alone; the next long insert reuses the slot and
	// drops the dead suffix.
	tr.Remove([]byte(k1))
	if bagBytes(n) != 1+16+130 {
		t.Fatal("remove touched the bag")
	}
	k3 := longKey("c", 5)
	put(tr, k3, k3)
	if got := n.perm().slot(1); got != slot1 {
		t.Fatalf("reinsert took slot %d, want the freed slot %d", got, slot1)
	}
	if want := 1 + 16 + 35; bagBytes(n) != want {
		t.Fatalf("bag is %d B after compaction, want %d", bagBytes(n), want)
	}
	mustMiss(t, tr, k1)
	mustGet(t, tr, k2, k2)
	mustGet(t, tr, k3, k3)

	// A short key into a slot with a dead suffix ignores it.
	tr.Remove([]byte(k3))
	put(tr, "short", "s")
	mustGet(t, tr, "short", "s")
	mustGet(t, tr, k2, k2)
	checkInvariants(t, tr)
}

// bagSize is the length of the bag newBag builds of suffixes of these
// lengths, in the form it picks: compact, an 8-byte header, when none is
// longer than 15 bytes; else the width byte and sixteen offsets of the
// narrowest width that reaches the total.
func bagSize(lens ...int) int {
	total, longest := 0, 0
	for _, l := range lens {
		total, longest = total+l, max(longest, l)
	}
	switch {
	case total == 0:
		return 0
	case longest <= 15:
		return 8 + total
	}
	return bagHeader(offsetWidth(total)) + total
}

func TestSuffixBagOffsetWidths(t *testing.T) {
	// width 0 is the compact form, whose byte 0 has a low nibble of 0.
	for _, c := range []struct{ sufLen, keys, width int }{
		{1, 15, 0}, {2, 10, 0}, {15, 15, 0}, {16, 1, 1}, {16, 15, 1}, {17, 15, 1}, {18, 15, 2},
		{300, 1, 2}, {65535, 1, 2}, {65536, 1, 4}, {70000, 1, 4}, {70000, 15, 4},
	} {
		tr := New()
		var keys []string
		for i := 0; i < c.keys; i++ {
			keys = append(keys, longKey(string(rune('a'+i)), c.sufLen))
			put(tr, keys[i], "v")
		}
		n, _ := tr.findBorder(tr.rootHeader(), 0)
		if n.next.Load() != nil {
			t.Fatal("node split")
		}
		got := int(n.bag()[0])
		if isCompact(n.bag()[0]) {
			got = 0
		}
		if got != c.width {
			t.Errorf("%d suffixes of %d B: offsets are %d B wide, want %d (0: compact)", c.keys, c.sufLen, got, c.width)
		}
		want := 8 + c.keys*c.sufLen
		if c.width > 0 {
			want = 1 + 16*c.width + c.keys*c.sufLen
		}
		if bagBytes(n) != want {
			t.Errorf("%d suffixes of %d B: bag is %d B, want %d", c.keys, c.sufLen, bagBytes(n), want)
		}
		for _, k := range keys {
			mustGet(t, tr, k, "v")
		}
		mustMiss(t, tr, keys[0][:len(keys[0])-1])
		i := 0
		tr.Scan(nil, func(k []byte, _ *value.Value) bool {
			if string(k) != keys[i] {
				t.Fatalf("scan: key %d differs", i)
			}
			i++
			return true
		})
		if i != len(keys) {
			t.Fatalf("scan saw %d keys, want %d", i, len(keys))
		}
	}
}

// randomSuffix is a suffix of a length the bag's forms turn on: mostly 1 to
// 16 bytes, 15 and 16 — the boundary — often, now and then a long one.
func randomSuffix(rng *rand.Rand) []byte {
	var l int
	switch r := rng.Intn(10); {
	case r < 6:
		l = 1 + rng.Intn(16)
	case r < 9:
		l = 15 + rng.Intn(2)
	default:
		l = 17 + rng.Intn(300)
	}
	b := make([]byte, l)
	rng.Read(b)
	return b
}

// checkBag compares the bag at p with the model: slot s's suffix is want[s]
// for every slot, and the bag is as long as its encoding of them says.
func checkBag(t *testing.T, p *byte, want *[width][]byte, what string) {
	t.Helper()
	var lens []int
	for _, s := range want {
		lens = append(lens, len(s))
	}
	b := bagAt(p)
	if len(b) != bagSize(lens...) {
		t.Fatalf("%s: bag of %v is %d B, want %d", what, lens, len(b), bagSize(lens...))
	}
	if b != nil && isCompact(b[0]) != (slices.Max(lens) <= 15) {
		t.Fatalf("%s: bag of %v has the wrong form (byte 0 %#x)", what, lens, b[0])
	}
	for s := range want {
		if got := b.suffix(s); !bytes.Equal(got, want[s]) {
			t.Fatalf("%s: slot %d holds %q, want %q (lengths %v)", what, s, got, want[s], lens)
		}
	}
}

// TestSuffixBagModel builds bags of random live sets and lengths over all
// fifteen slots, and from each a rebuild as insertSlot makes it — the live
// suffixes read back out of the bag, some slots dead, one new — and checks
// every slot of both against the model.
func TestSuffixBagModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 20000; iter++ {
		var sufs [width][]byte
		for s := range sufs {
			if rng.Intn(3) > 0 {
				sufs[s] = randomSuffix(rng)
			}
		}
		p := newBag(&sufs)
		checkBag(t, p, &sufs, "newBag")

		// The rebuild: a random live subset, and a new suffix in a slot that
		// is not live, dead bytes or none.
		var want, gathered [width][]byte
		for s := range sufs {
			if sufs[s] != nil && rng.Intn(4) > 0 {
				want[s], gathered[s] = sufs[s], bagAt(p).suffix(s)
			}
		}
		var free []int
		for s := range want {
			if want[s] == nil {
				free = append(free, s)
			}
		}
		if len(free) == 0 {
			continue
		}
		slot := free[rng.Intn(len(free))]
		want[slot] = randomSuffix(rng)
		gathered[slot] = want[slot]
		checkBag(t, newBag(&gathered), &want, "rebuild")
	}
}

// TestSuffixBagRebuilds runs random inserts of short and long keys, removes
// and suffix→twig swaps over one border's fifteen slices against a model of
// the live suffixes. A long key's insert must publish a new bag of exactly
// the live suffixes; a remove, a short key's insert or a swap to a twig must
// leave the bag as it was, dead bytes and all. Every live suffix slot must
// read its key's suffix back.
func TestSuffixBagRebuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := New()
	// Fourteen slices, so that a short key's visit makes fifteen keys at most
	// and the border never splits.
	const nslices = width - 1
	slice := func(i int) string { return fmt.Sprintf("slice%03d", i) }
	sliceOf := map[uint64]int{}
	for i := 0; i < nslices; i++ {
		sliceOf[keySlice([]byte(slice(i)))] = i
	}
	suffixKey := map[int]string{} // slice → its one long key, if it is not in a twig
	twigs := map[int][]string{}   // slice → the two long keys of its twig
	var lastBag *byte
	var lastLen int
	forms := map[bool]int{}
	for op := 0; op < 20000; op++ {
		i := rng.Intn(nslices)
		k := slice(i) + string(randomSuffix(rng))
		rebuilt := false
		switch r := rng.Intn(4); {
		case r == 0:
			// A short key's visit: in and out of a slot.
			short := slice(i)[:1+rng.Intn(8)]
			put(tr, short, short)
			tr.Remove([]byte(short))
		case len(twigs[i]) > 0:
			for _, tk := range twigs[i] {
				tr.Remove([]byte(tk))
			}
			delete(twigs, i)
		case suffixKey[i] == "":
			put(tr, k, k)
			suffixKey[i], rebuilt = k, true
		case r == 1:
			tr.Remove([]byte(suffixKey[i]))
			delete(suffixKey, i)
		case k != suffixKey[i]:
			// A second long key of the slice: the suffix → twig swap.
			put(tr, k, k)
			twigs[i] = []string{suffixKey[i], k}
			delete(suffixKey, i)
		}
		n, _ := tr.findBorder(tr.rootHeader(), 0)
		if n.next.Load() != nil {
			t.Fatal("node split")
		}
		p := n.suffixes.Load()
		if rebuilt == (p == lastBag) {
			t.Fatalf("op %d: bag %p → %p; a rebuild %v", op, lastBag, p, rebuilt)
		}
		perm, kw := n.perm(), n.keylens.Load()
		var want [width][]byte
		for r := 0; r < perm.count(); r++ {
			if s := perm.slot(r); klAt(kw, s) == klSuffix {
				k, ok := suffixKey[sliceOf[n.keyslice[s].Load()]]
				if !ok {
					t.Fatalf("op %d: slot %d holds a suffix key of a slice that has none", op, s)
				}
				want[s] = []byte(k[8:])
			}
		}
		if rebuilt {
			checkBag(t, p, &want, fmt.Sprintf("op %d", op))
			forms[isCompact(*p)]++
		} else if len(bagAt(p)) != lastLen {
			t.Fatalf("op %d: the bag's length went %d → %d with no rebuild", op, lastLen, len(bagAt(p)))
		}
		for s := range want {
			if want[s] != nil && !bytes.Equal(n.bag().suffix(s), want[s]) {
				t.Fatalf("op %d: slot %d reads %q, want %q", op, s, n.bag().suffix(s), want[s])
			}
		}
		lastBag, lastLen = p, len(bagAt(p))
	}
	if forms[true] < 100 || forms[false] < 100 {
		t.Fatalf("rebuilds: %d compact, %d general; want both forms often", forms[true], forms[false])
	}
	for _, k := range suffixKey {
		mustGet(t, tr, k, k)
	}
	for _, tw := range twigs {
		for _, k := range tw {
			mustGet(t, tr, k, k)
		}
	}
	checkInvariants(t, tr)
}

// TestSuffixBagGoesCompactAgain: a long suffix makes the bag general; it
// stays so, dead, after the key's remove, and the next rebuild — the insert
// of a short long key — drops it and goes compact.
func TestSuffixBagGoesCompactAgain(t *testing.T) {
	tr := New()
	short, long := longKey("a", 2), longKey("b", 16)
	put(tr, short, short)
	n, _ := tr.findBorder(tr.rootHeader(), 0)
	if !isCompact(n.bag()[0]) || bagBytes(n) != 8+2 {
		t.Fatalf("a 2-byte suffix: bag of %d B, compact %v", bagBytes(n), isCompact(n.bag()[0]))
	}
	put(tr, long, long)
	if isCompact(n.bag()[0]) || bagBytes(n) != bagSize(2, 16) {
		t.Fatalf("a 16-byte suffix: bag of %d B, compact %v", bagBytes(n), isCompact(n.bag()[0]))
	}
	tr.Remove([]byte(long))
	if isCompact(n.bag()[0]) {
		t.Fatal("remove rebuilt the bag")
	}
	third := longKey("c", 15)
	put(tr, third, third)
	if !isCompact(n.bag()[0]) || bagBytes(n) != 8+2+15 {
		t.Fatalf("after the long suffix died: bag of %d B, compact %v; want compact, %d B", bagBytes(n), isCompact(n.bag()[0]), 8+2+15)
	}
	mustGet(t, tr, short, short)
	mustGet(t, tr, third, third)
	mustMiss(t, tr, long)
	checkInvariants(t, tr)
}

// TestSplitSendsSuffixesToTheirSide: after a split each node's bag holds its
// own live suffixes and nothing else.
func TestSplitSendsSuffixesToTheirSide(t *testing.T) {
	for r := 0; r <= 15; r++ {
		tr := New()
		var keys []string
		for i := 0; i < 15; i++ {
			keys = append(keys, longKey(fmt.Sprintf("k%02d", 2*i), 10+i))
			put(tr, keys[i], keys[i])
		}
		pend := longKey(fmt.Sprintf("k%02d", 2*r-1), 70000)
		keys = append(keys, pend)
		put(tr, pend, pend)
		sort.Strings(keys)

		var got []string
		n, _ := tr.findBorder(tr.rootHeader(), 0)
		nodes := 0
		for ; n != nil; n = n.next.Load() {
			nodes++
			live, lens := 0, []int(nil)
			for _, k := range layer0Keys(n) {
				got = append(got, string(k))
				live += len(k) - 8
				lens = append(lens, len(k)-8)
			}
			if want := bagSize(lens...); bagBytes(n) != want {
				t.Errorf("rank %d: bag of %d B holds more than its node's %d suffix bytes", r, bagBytes(n), live)
			}
		}
		if nodes != 2 || !reflect.DeepEqual(got, keys) {
			t.Fatalf("rank %d: %d nodes hold %d keys, want 2 nodes holding the %d inserted", r, nodes, len(got), len(keys))
		}
		for _, k := range keys {
			mustGet(t, tr, k, k)
		}
		checkInvariants(t, tr)
	}
}

// aliases reports whether b's first byte lies inside a.
func aliases(a, b []byte) bool {
	lo, hi := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&a[0]))+uintptr(len(a))
	p := uintptr(unsafe.Pointer(&b[0]))
	return p >= lo && p < hi
}

// TestTwigAndLayerCopyTheirBytes: a twig's remainders are copies — not a
// window on the border's bag, nor on the key the caller passed — and the bag
// is left as it was; and the layer a full twig becomes holds copies again,
// not windows on the twig.
func TestTwigAndLayerCopyTheirBytes(t *testing.T) {
	tr := New()
	key := func(tail string) string { return "01234567" + "ABCDEFGH" + tail }
	k := key("the-rest")
	put(tr, k, k)
	n, _ := tr.findBorder(tr.rootHeader(), 0)
	slot := n.perm().slot(0)
	oldPtr, old := n.suffixes.Load(), n.bag()

	k2 := []byte(key("another"))
	tr.Put(k2, value.New(k2))
	if n.suffixes.Load() != oldPtr || string(old.suffix(slot)) != k[8:] {
		t.Fatal("makeTwig touched the border's bag")
	}
	if n.keylen(slot) != klTwig {
		t.Fatalf("slot has keylen %d, want a twig", n.keylen(slot))
	}
	tw := (*twig)(n.loadLV(slot))
	keys := tw.keys()
	if keys.n() != 2 || string(keys.at(0)) != "ABCDEFGHanother" || string(keys.at(1)) != "ABCDEFGHthe-rest" {
		t.Fatalf("twig holds %d keys, %q first", keys.n(), keys.at(0))
	}
	if aliases(old, keys) || aliases(k2, keys) {
		t.Fatal("the twig's bytes alias the bag or the caller's key")
	}

	for _, tail := range []string{"c", "d", "e"} {
		put(tr, key(tail), key(tail))
	}
	if n.keylen(slot) != klLayer {
		t.Fatalf("slot has keylen %d after a fifth key, want a layer", n.keylen(slot))
	}
	// The five share their next slice too: a twig of four and then a layer,
	// one level down, built before the first was published.
	layer := (*nodeHeader)(n.loadLV(slot)).border()
	if layer.perm().count() != 1 || layer.keylen(layer.perm().slot(0)) != klLayer {
		t.Fatalf("the layer under %q is not a link to the next", "01234567")
	}
	leaf := (*nodeHeader)(layer.loadLV(layer.perm().slot(0))).border()
	if got := leaf.perm().count(); got != 5 {
		t.Fatalf("the second layer holds %d keys, want 5", got)
	}
	if lb := leaf.bag(); lb != nil && aliases(keys, lb) {
		t.Fatal("the new layer's bag aliases the twig it came from")
	}
	if got := tr.Stats(); got.TwigCreations != 2 || got.LayerCreations != 2 {
		t.Fatalf("%d twig and %d layer creations, want 2 and 2", got.TwigCreations, got.LayerCreations)
	}
	for _, tail := range []string{"the-rest", "another", "c", "d", "e"} {
		mustGet(t, tr, key(tail), key(tail))
	}
	if tr.Len() != 5 {
		t.Fatalf("Len = %d, want 5", tr.Len())
	}
	checkInvariants(t, tr)
}
