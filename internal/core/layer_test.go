package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/value"
)

// TestLayerRootSplitLazyFix forces a layer-1 B+-tree to split (so the
// next_layer pointer stored in the layer-0 border node goes stale) and
// verifies lookups keep working and repair the pointer lazily (§4.6.4:
// "other roots ... are updated lazily during later operations").
func TestLayerRootSplitLazyFix(t *testing.T) {
	tr := New()
	// All keys share an 8-byte prefix; their remainders populate a layer-1
	// tree which must split once it exceeds one border node (15 keys).
	const n = 200
	for i := 0; i < n; i++ {
		put(tr, fmt.Sprintf("PREFIX00-%06d", i), fmt.Sprintf("v%d", i))
	}
	if s := tr.Stats(); s.LayerCreations == 0 || s.Splits == 0 {
		t.Fatalf("expected layer creation and layer-tree splits: %+v", s)
	}
	for i := 0; i < n; i++ {
		mustGet(t, tr, fmt.Sprintf("PREFIX00-%06d", i), fmt.Sprintf("v%d", i))
	}
	checkInvariants(t, tr)
}

// TestDeepLayerChain builds a key set that forces several trie layers and
// then removes everything, exercising recursive layer collapse.
func TestDeepLayerChain(t *testing.T) {
	tr := New()
	base := "0123456789abcdef0123456789abcdef" // 32 bytes -> up to 4 layers
	var keys []string
	for i := 0; i < 50; i++ {
		keys = append(keys, fmt.Sprintf("%s-%04d", base, i))
	}
	// Also intermediate-length prefixes of the shared stem.
	for l := 1; l < len(base); l += 5 {
		keys = append(keys, base[:l])
	}
	for i, k := range keys {
		put(tr, k, fmt.Sprintf("v%d", i))
	}
	for i, k := range keys {
		mustGet(t, tr, k, fmt.Sprintf("v%d", i))
	}
	checkInvariants(t, tr)
	for _, k := range keys {
		if _, ok := tr.Remove([]byte(k)); !ok {
			t.Fatalf("remove %q failed", k)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len=%d", tr.Len())
	}
	// Collapse may require several passes (inner layers empty first).
	for i := 0; i < 10 && len(tr.maint) > 0; i++ {
		tr.Maintain()
	}
	checkInvariants(t, tr)
	// Tree remains fully usable.
	put(tr, base+"-new", "fresh")
	mustGet(t, tr, base+"-new", "fresh")
}

// TestRemoveCascadeThroughInteriors deletes a contiguous key range so whole
// subtrees (border nodes plus interior ancestors) disappear.
func TestRemoveCascadeThroughInteriors(t *testing.T) {
	tr := New()
	const n = 5000
	for i := 0; i < n; i++ {
		put(tr, fmt.Sprintf("k%06d", i), "v")
	}
	// Remove the middle 80%.
	for i := n / 10; i < n*9/10; i++ {
		if _, ok := tr.Remove([]byte(fmt.Sprintf("k%06d", i))); !ok {
			t.Fatalf("remove %d failed", i)
		}
	}
	if s := tr.Stats(); s.NodeDeletes == 0 {
		t.Fatal("expected interior/border node deletions")
	}
	checkInvariants(t, tr)
	for i := 0; i < n/10; i++ {
		mustGet(t, tr, fmt.Sprintf("k%06d", i), "v")
	}
	for i := n * 9 / 10; i < n; i++ {
		mustGet(t, tr, fmt.Sprintf("k%06d", i), "v")
	}
	// Scans stay correct across the removed gap.
	got := getRange(tr, []byte(fmt.Sprintf("k%06d", n/10-2)), 5)
	if len(got) != 5 {
		t.Fatalf("range returned %d", len(got))
	}
	if string(got[2].Key) != fmt.Sprintf("k%06d", n*9/10) {
		t.Fatalf("scan did not skip the removed gap: %q", got[2].Key)
	}
}

// TestQuickOpSequences drives random short op sequences from testing/quick
// against the reference model — a complement to the seeded model tests,
// with quick generating adversarial key bytes.
func TestQuickOpSequences(t *testing.T) {
	type op struct {
		Kind byte
		Key  []byte
	}
	f := func(ops []op) bool {
		tr, m := New(), model.New()
		for i, o := range ops {
			k := o.Key[:min(len(o.Key), 40)]
			want, wantOK := valueOf(m, string(k))
			switch o.Kind % 3 {
			case 0:
				tr.Put(k, value.New([]byte{byte(i)}))
				set(m, string(k), string([]byte{byte(i)}))
			case 1:
				if v, ok := tr.Get(k); ok != wantOK || ok && string(v.Bytes()) != want {
					return false
				}
			case 2:
				if _, ok := tr.Remove(k); ok != wantOK {
					return false
				}
				m.Remove(string(k), 0)
			}
		}
		checkTree(t, tr, m)
		return tr.Len() == m.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestScanResumesAfterExactKey checks getrange boundary semantics at layer
// boundaries: starting exactly at a key that is also a layer prefix.
func TestScanResumesAfterExactKey(t *testing.T) {
	tr := New()
	put(tr, "ABCDEFGH", "exact8")  // stored inline at layer 0 (ord 8)
	put(tr, "ABCDEFGHxx", "long1") // layer entry under same slice
	put(tr, "ABCDEFGHyy", "long2")
	put(tr, "ABCDEFGA", "before")
	put(tr, "ABCDEFGZ", "after")

	got := getRange(tr, []byte("ABCDEFGH"), 10)
	want := []string{"ABCDEFGH", "ABCDEFGHxx", "ABCDEFGHyy", "ABCDEFGZ"}
	if len(got) != len(want) {
		t.Fatalf("got %d pairs: %v", len(got), got)
	}
	for i, w := range want {
		if string(got[i].Key) != w {
			t.Fatalf("pair %d = %q, want %q", i, got[i].Key, w)
		}
	}
	// Start strictly inside the layer.
	got = getRange(tr, []byte("ABCDEFGHxy"), 10)
	if len(got) != 2 || string(got[0].Key) != "ABCDEFGHyy" {
		t.Fatalf("mid-layer start wrong: %v", got)
	}
}
