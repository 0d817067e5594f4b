package core

import (
	"fmt"
	"testing"

	"repro/internal/occ"
	"repro/internal/value"
)

func mustGet(t *testing.T, tr *Tree, key, want string) {
	t.Helper()
	v, ok := tr.Get([]byte(key))
	if !ok {
		t.Fatalf("Get(%q): not found", key)
	}
	if got := string(v.Col(0)); got != want {
		t.Fatalf("Get(%q) = %q, want %q", key, got, want)
	}
}

func mustMiss(t *testing.T, tr *Tree, key string) {
	t.Helper()
	if v, ok := tr.Get([]byte(key)); ok {
		t.Fatalf("Get(%q) = %q, want miss", key, v.Col(0))
	}
}

func put(tr *Tree, key, val string) (*value.Value, bool) {
	return tr.Put([]byte(key), value.New([]byte(val)))
}

func TestEmptyTree(t *testing.T) {
	tr := New()
	mustMiss(t, tr, "a")
	mustMiss(t, tr, "")
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if _, ok := tr.Remove([]byte("a")); ok {
		t.Fatal("Remove on empty tree reported success")
	}
}

func TestBasicPutGet(t *testing.T) {
	tr := New()
	put(tr, "hello", "world")
	mustGet(t, tr, "hello", "world")
	mustMiss(t, tr, "hell")
	mustMiss(t, tr, "hello!")
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	old, replaced := put(tr, "hello", "there")
	if !replaced || string(old.Col(0)) != "world" {
		t.Fatalf("replace: old=%v replaced=%v", old, replaced)
	}
	mustGet(t, tr, "hello", "there")
	if tr.Len() != 1 {
		t.Fatalf("Len after replace = %d", tr.Len())
	}
}

func TestEmptyKeyAndNulKeys(t *testing.T) {
	tr := New()
	put(tr, "", "empty")
	put(tr, "\x00", "one-nul")
	put(tr, "\x00\x00", "two-nul")
	put(tr, "ABCDEFG", "seven")
	put(tr, "ABCDEFG\x00", "eight-nul")
	mustGet(t, tr, "", "empty")
	mustGet(t, tr, "\x00", "one-nul")
	mustGet(t, tr, "\x00\x00", "two-nul")
	mustGet(t, tr, "ABCDEFG", "seven")
	mustGet(t, tr, "ABCDEFG\x00", "eight-nul")
	mustMiss(t, tr, "\x00\x00\x00")
}

// TestPaperLayerExample runs the exact sequence of §4.1.
func TestPaperLayerExample(t *testing.T) {
	tr := New()
	// 1. put("01234567AB") stores slice + suffix "AB" in the root layer.
	put(tr, "01234567AB", "v1")
	mustGet(t, tr, "01234567AB", "v1")
	if s := tr.Stats(); s.TwigCreations != 0 || s.LayerCreations != 0 {
		t.Fatalf("premature layer creation: %+v", s)
	}
	// 2. put("01234567XY") shares the 8-byte prefix: a layer-1 tree appears
	// — here in its smallest form, a twig of the two; both keys remain
	// visible throughout.
	put(tr, "01234567XY", "v2")
	if s := tr.Stats(); s.TwigCreations != 1 || s.LayerCreations != 0 {
		t.Fatalf("expected one twig and no layer, got %+v", s)
	}
	mustGet(t, tr, "01234567AB", "v1")
	mustGet(t, tr, "01234567XY", "v2")
	mustMiss(t, tr, "01234567")
	mustMiss(t, tr, "01234567AZ")
	// 3. remove("01234567XY") deletes "XY" from the layer-1 tree; "AB" stays.
	if _, ok := tr.Remove([]byte("01234567XY")); !ok {
		t.Fatal("remove failed")
	}
	mustGet(t, tr, "01234567AB", "v1")
	mustMiss(t, tr, "01234567XY")
	// 4. Three more keys fill the twig; the next is one too many and the
	// layer-1 tree becomes a B+-tree of its own.
	for _, k := range []string{"01234567CD", "01234567EF", "01234567GH", "01234567IJ"} {
		put(tr, k, k)
	}
	if s := tr.Stats(); s.TwigCreations != 1 || s.LayerCreations != 1 {
		t.Fatalf("expected the twig to have become a layer, got %+v", s)
	}
	for _, k := range []string{"01234567CD", "01234567EF", "01234567GH", "01234567IJ"} {
		mustGet(t, tr, k, k)
	}
	mustGet(t, tr, "01234567AB", "v1")
	checkInvariants(t, tr)
}

func TestDeepSharedPrefix(t *testing.T) {
	tr := New()
	// A 640-byte prefix that five keys share — one more than a twig holds —
	// forces 80 layers (§4.1 Balance), past any fixed bound on the depth.
	prefix := ""
	for i := 0; i < 80; i++ {
		prefix += "PFX" + fmt.Sprintf("%05d", i)
	}
	keys := []string{prefix + "aaa", prefix + "bbb", prefix + "ccc", prefix + "ddd", prefix[:20], prefix}
	for i, k := range keys {
		put(tr, k, fmt.Sprintf("v%d", i))
	}
	for i, k := range keys {
		mustGet(t, tr, k, fmt.Sprintf("v%d", i))
	}
	if tr.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(keys))
	}
	// Keys sharing the prefix must have created layers.
	if s := checkInvariants(t, tr); len(s.Layers) < 80 {
		t.Fatalf("%d trie layers, want at least 80", len(s.Layers))
	}
}

func TestSequentialInsertSplits(t *testing.T) {
	tr := New()
	const n = 2000
	for i := 0; i < n; i++ {
		put(tr, fmt.Sprintf("key%06d", i), fmt.Sprintf("val%d", i))
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	for i := 0; i < n; i++ {
		mustGet(t, tr, fmt.Sprintf("key%06d", i), fmt.Sprintf("val%d", i))
	}
	if s := tr.Stats(); s.Splits == 0 {
		t.Fatal("expected splits")
	}
}

func TestReverseSequentialInsert(t *testing.T) {
	tr := New()
	const n = 1000
	for i := n - 1; i >= 0; i-- {
		put(tr, fmt.Sprintf("key%06d", i), "v")
	}
	for i := 0; i < n; i++ {
		mustGet(t, tr, fmt.Sprintf("key%06d", i), "v")
	}
}

func TestUpdateRMW(t *testing.T) {
	tr := New()
	old, stored := tr.Update([]byte("ctr"), func(old *value.Value) *value.Value {
		if old != nil {
			t.Fatal("old should be nil on first update")
		}
		return value.New([]byte{1})
	})
	if old != nil || stored.Col(0)[0] != 1 {
		t.Fatal("first update wrong")
	}
	for i := 0; i < 10; i++ {
		tr.Update([]byte("ctr"), func(old *value.Value) *value.Value {
			return value.New([]byte{old.Col(0)[0] + 1})
		})
	}
	v, _ := tr.Get([]byte("ctr"))
	if v.Col(0)[0] != 11 {
		t.Fatalf("counter = %d, want 11", v.Col(0)[0])
	}
}

func TestRemoveEverythingThenReuse(t *testing.T) {
	tr := New()
	const n = 500
	for i := 0; i < n; i++ {
		put(tr, fmt.Sprintf("k%05d", i), "v")
	}
	for i := 0; i < n; i++ {
		if _, ok := tr.Remove([]byte(fmt.Sprintf("k%05d", i))); !ok {
			t.Fatalf("remove %d failed", i)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after removing all", tr.Len())
	}
	for i := 0; i < n; i++ {
		mustMiss(t, tr, fmt.Sprintf("k%05d", i))
	}
	if s := tr.Stats(); s.NodeDeletes == 0 {
		t.Fatal("expected node deletions")
	}
	// The tree must remain fully usable.
	for i := 0; i < n; i++ {
		put(tr, fmt.Sprintf("k%05d", i), "v2")
	}
	for i := 0; i < n; i++ {
		mustGet(t, tr, fmt.Sprintf("k%05d", i), "v2")
	}
}

// TestRemoveKeepsParentsLeftmostChild empties a non-leftmost border that is
// its parent's child[0]. Unlinking it would hand its range left in the
// border list but right in the interior (the dropped separator), so it must
// stay linked, empty, and take the next put into its old range. Its right
// neighbour, an ordinary child, is unlinked and its range moves to it.
func TestRemoveKeepsParentsLeftmostChild(t *testing.T) {
	tr := New()
	const n = 300 // sequential fill: 20 borders of 15, so the root interior has split
	for i := 0; i < n; i++ {
		put(tr, fmt.Sprintf("k%05d", i), "v")
	}
	root := tr.rootHeader()
	if occ.Border(root.Load()) {
		t.Fatal("tree has no interior level")
	}
	ph := root.interior().child[1].Load()
	if occ.Border(ph.Load()) {
		t.Fatal("tree has one interior level, want two")
	}
	parent := ph.interior()
	b := parent.child[0].Load().border()
	sibling := parent.child[1].Load().border()
	if b.prev.Load() == nil || b.next.Load() != sibling {
		t.Fatal("picked the wrong nodes")
	}
	empty := func(x *borderNode) (first string) {
		keys := layer0Keys(x)
		for _, k := range keys {
			if _, ok := tr.Remove(k); !ok {
				t.Fatalf("remove %q failed", k)
			}
		}
		return string(keys[0])
	}

	deletes := tr.Stats().NodeDeletes
	firstKey := empty(b)
	if occ.Deleted(b.h.Load()) || b.prev.Load().next.Load() != b || parent.child[0].Load() != &b.h {
		t.Fatal("a parent's leftmost child was unlinked")
	}
	if d := tr.Stats().NodeDeletes; d != deletes {
		t.Fatalf("NodeDeletes moved by %d", d-deletes)
	}
	checkInvariants(t, tr)

	siblingKey := empty(sibling)
	if !occ.Deleted(sibling.h.Load()) || b.next.Load() == sibling || parent.child[1].Load() == &sibling.h {
		t.Fatal("an ordinary empty child was not unlinked")
	}
	checkInvariants(t, tr)

	// Both ranges now belong to b.
	for _, k := range []string{firstKey, siblingKey} {
		put(tr, k, "back")
		mustGet(t, tr, k, "back")
	}
	if c := b.perm().count(); c != 2 {
		t.Fatalf("revived border holds %d keys, want 2", c)
	}
	checkInvariants(t, tr)
}

// sameSlice are five keys of one slice: one more than a twig holds, so a
// layer.
var sameSlice = []string{"01234567AB", "01234567CD", "01234567EF", "01234567GH", "01234567XY"}

func TestLayerCollapseMaintenance(t *testing.T) {
	tr := New()
	for _, k := range sameSlice {
		put(tr, k, "v1")
	}
	for _, k := range sameSlice {
		tr.Remove([]byte(k))
	}
	if n := tr.Maintain(); n != 1 {
		t.Fatalf("Maintain collapsed %d layers, want 1", n)
	}
	if s := tr.Stats(); s.LayerCollapses != 1 {
		t.Fatalf("LayerCollapses = %d, want 1", s.LayerCollapses)
	}
	// Reinsert through the collapsed region.
	put(tr, "01234567AB", "v3")
	mustGet(t, tr, "01234567AB", "v3")
}

// TestEmptiedTwigNeedsNoMaintenance: a twig drained by removes leaves its
// border as any key does — nothing is queued, nothing lingers — and one
// drained to a single key stays a twig.
func TestEmptiedTwigNeedsNoMaintenance(t *testing.T) {
	tr := New()
	put(tr, "anchor", "a")
	for _, k := range sameSlice[:3] {
		put(tr, k, k)
	}
	n, _ := tr.findBorder(tr.rootHeader(), keySlice([]byte(sameSlice[0])))
	tr.Remove([]byte(sameSlice[1]))
	tr.Remove([]byte(sameSlice[0]))
	rank, found := n.searchRank(n.perm(), keySlice([]byte(sameSlice[0])), 9)
	if !found || n.keylen(n.perm().slot(rank)) != klTwig {
		t.Fatal("a twig down to one key did not stay a twig")
	}
	mustGet(t, tr, sameSlice[2], sameSlice[2])
	checkInvariants(t, tr)
	tr.Remove([]byte(sameSlice[2]))
	if n.perm().count() != 1 || len(tr.maint) != 0 || tr.Len() != 1 {
		t.Fatalf("an emptied twig left %d slots, %d tasks, Len %d", n.perm().count(), len(tr.maint), tr.Len())
	}
	for _, k := range sameSlice[:3] {
		mustMiss(t, tr, k)
	}
	put(tr, sameSlice[1], "back")
	mustGet(t, tr, sameSlice[1], "back")
	checkInvariants(t, tr)
}

func TestLayerCollapseSkipsRevivedLayer(t *testing.T) {
	tr := New()
	for _, k := range sameSlice {
		put(tr, k, "v1")
	}
	for _, k := range sameSlice {
		tr.Remove([]byte(k))
	}
	// Revive the layer before maintenance runs.
	put(tr, "01234567CD", "v3")
	tr.Maintain()
	mustGet(t, tr, "01234567CD", "v3")
	if s := tr.Stats(); s.LayerCollapses != 0 {
		t.Fatalf("collapsed a live layer: %+v", s)
	}
}

func TestSameSliceGroup(t *testing.T) {
	tr := New()
	// All 9 prefixes of one 8-byte string share a slice representation and
	// must coexist in one border node (§4.2: up to 10 keys per slice).
	base := "ABCDEFGH"
	for i := 0; i <= 8; i++ {
		put(tr, base[:i], fmt.Sprintf("v%d", i))
	}
	put(tr, base+"-long", "v9") // the one >8-byte key for this slice
	for i := 0; i <= 8; i++ {
		mustGet(t, tr, base[:i], fmt.Sprintf("v%d", i))
	}
	mustGet(t, tr, base+"-long", "v9")
	// Force surrounding splits and re-check the group stayed intact.
	for i := 0; i < 500; i++ {
		put(tr, fmt.Sprintf("ZZ%06d", i), "z")
	}
	for i := 0; i <= 8; i++ {
		mustGet(t, tr, base[:i], fmt.Sprintf("v%d", i))
	}
}

func TestValueVersionsAdvance(t *testing.T) {
	tr := New()
	tr.Update([]byte("k"), func(old *value.Value) *value.Value {
		return value.Apply(old, []value.ColPut{{Col: 0, Data: []byte("a")}})
	})
	v1, _ := tr.Get([]byte("k"))
	tr.Update([]byte("k"), func(old *value.Value) *value.Value {
		return value.Apply(old, []value.ColPut{{Col: 1, Data: []byte("b")}})
	})
	v2, _ := tr.Get([]byte("k"))
	if v2.Version() <= v1.Version() {
		t.Fatalf("versions not increasing: %d then %d", v1.Version(), v2.Version())
	}
	if string(v2.Col(0)) != "a" || string(v2.Col(1)) != "b" {
		t.Fatalf("columns wrong: %v", v2)
	}
}
