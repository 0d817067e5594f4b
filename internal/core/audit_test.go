package core

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/occ"
	"repro/internal/value"
)

// checkInvariants fails t if tr breaks one of §4's structural invariants,
// which Shape's walk checks (audit.go), and returns the walk's statistics.
// tr must be quiescent.
func checkInvariants(t *testing.T, tr *Tree) ShapeStats {
	t.Helper()
	s, err := tr.Shape()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAuditCatches plants one corruption at a time in a small quiescent
// tree — a two-level layer 0, a twig, a suffix key and a layer — and asserts
// that Shape's error names it.
func TestAuditCatches(t *testing.T) {
	v := value.New([]byte("v"))
	build := func() *Tree {
		tr := New()
		for i := 0; i < 200; i++ {
			tr.Put(fmt.Appendf(nil, "k%07d", i), v)
		}
		for _, k := range []string{"layered-0", "layered-1", "layered-2", "layered-3", "layered-4", "suffixed-key", "twiggedA1", "twiggedA22"} {
			tr.Put([]byte(k), v)
		}
		return tr
	}
	checkInvariants(t, build())
	// at returns the border that holds key and the key's slot in it.
	at := func(tr *Tree, key string) (*borderNode, int) {
		k := []byte(key)
		n, _ := tr.findBorder(tr.rootHeader(), keySlice(k))
		rank, _ := n.searchRank(n.perm(), keySlice(k), keyOrd(k))
		return n, n.perm().slot(rank)
	}
	first := func(tr *Tree) *borderNode { n, _ := tr.findBorder(tr.rootHeader(), 0); return n }
	root := func(tr *Tree) *interiorNode { return tr.rootHeader().interior() }
	permute := func(n *borderNode, f func(a *[width]int)) {
		a := n.perm().indexes()
		f(&a)
		n.permutation.Store(uint64(pack(a, n.perm().count())))
	}
	swap := func(a *[width]int) { a[0], a[1] = a[1], a[0] }
	// twigAt puts a twig of rems where the twig of "twiggedA1" was.
	twigAt := func(tr *Tree, rems ...string) *twig {
		var e twigEntries
		for _, r := range rems {
			e.insert(e.n, []byte(r), unsafe.Pointer(v))
		}
		n, slot := at(tr, "twiggedA1")
		n.storeLV(slot, unsafe.Pointer(e.build()))
		return (*twig)(n.loadLV(slot))
	}
	for _, c := range []struct {
		want  string
		plant func(tr *Tree)
	}{
		{"not a permutation", func(tr *Tree) { permute(first(tr), func(a *[width]int) { a[0] = a[1] }) }},
		{"keys out of order", func(tr *Tree) { permute(first(tr), swap) }},
		{"keys out of order", func(tr *Tree) { n, slot := at(tr, "layered-0"); permute((*nodeHeader)(n.loadLV(slot)).border(), swap) }},
		{"below lowkey", func(tr *Tree) { n := first(tr).next.Load(); n.keyslice[n.perm().slot(0)].Store(n.lowSlice - 1) }},
		{"at or above successor", func(tr *Tree) { n := first(tr); n.keyslice[n.perm().slot(14)].Store(n.next.Load().lowSlice) }},
		{"prev link", func(tr *Tree) { n := first(tr); n.next.Load().next.Load().prev.Store(n) }},
		{"next link", func(tr *Tree) { n := first(tr); n.next.Store(n.next.Load().next.Load()) }},
		{"rightmost", func(tr *Tree) {
			n, _ := tr.findBorder(tr.rootHeader(), ^uint64(0))
			n.next.Store(&borderNode{lowSlice: ^uint64(0)})
		}},
		{"leftmost", func(tr *Tree) { first(tr).lowSlice = 1 }},
		{"remainders out of order", func(tr *Tree) { twigAt(tr, "22", "1") }},
		{"in cell 1", func(tr *Tree) { twigAt(tr, "1").cell(1).Store(v) }},
		{"nil cell", func(tr *Tree) { twigAt(tr, "1", "22").cell(0).Store(nil) }},
		{"in tiny false", func(tr *Tree) { tw := twigAt(tr, "1", "22"); k := append(twigKeys(nil), tw.keys()...); tw.rems = &k[0] }},
		{"nkeys", func(tr *Tree) { root(tr).nkeys.Store(width + 1) }},
		{"nil child", func(tr *Tree) { root(tr).child[1].Store(nil) }},
		{"has parent", func(tr *Tree) { root(tr).child[1].Load().parent.Store(nil) }},
		{"separators", func(tr *Tree) { in := root(tr); in.keyslice[1].Store(in.keyslice[0].Load()) }},
		{"marked deleted", func(tr *Tree) { root(tr).child[1].Load().MarkDeleted() }},
		{"marked root", func(tr *Tree) { c := root(tr).child[1].Load(); c.Init(c.Load() | occ.RootBit) }},
		{"tree root", func(tr *Tree) { tr.rootHeader().ClearRoot() }},
		{"a layer link to", func(tr *Tree) {
			n, slot := at(tr, "layered-0")
			l := (*nodeHeader)(n.loadLV(slot)).border()
			l.storeLV(l.perm().slot(4), unsafe.Pointer(tr.rootHeader()))
			l.setKeylen(l.perm().slot(4), klLayer)
		}},
		{"routing", func(tr *Tree) { in := root(tr); in.keyslice[0].Store(in.keyslice[0].Load() + 1) }},
		{"unstable", func(tr *Tree) { n, slot := at(tr, "k0000100"); n.setKeylen(slot, klUnstable) }},
		{"empty suffix", func(tr *Tree) { n, _ := at(tr, "suffixed-key"); n.suffixes.Store(nil) }},
		{"nil value", func(tr *Tree) { n, slot := at(tr, "k0000100"); n.storeLV(slot, nil) }},
	} {
		t.Run(c.want, func(t *testing.T) {
			tr := build()
			c.plant(tr)
			if _, err := tr.Shape(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Shape's error %v does not say %q", err, c.want)
			}
		})
	}
}

// TestInvariantsAfterMixedOps drives a deterministic mixed workload and
// checks invariants at checkpoints.
func TestInvariantsAfterMixedOps(t *testing.T) {
	tr := New()
	for i := 0; i < 3000; i++ {
		put(tr, keyPattern(i), "v")
		if i%5 == 0 {
			tr.Remove([]byte(keyPattern(i / 2)))
		}
		if i%500 == 499 {
			checkInvariants(t, tr)
			tr.Maintain()
			checkInvariants(t, tr)
		}
	}
	checkInvariants(t, tr)
}

func keyPattern(i int) string {
	switch i % 4 {
	case 0:
		return "short" + string(rune('a'+i%26))
	case 1:
		return "medium-key-0" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
	case 2:
		return "a-very-long-shared-prefix-for-layers-" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26))
	default:
		return string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26))
	}
}
