package core

import (
	"bytes"
	"testing"

	"repro/internal/occ"
)

// checkInvariants physically walks the tree (quiescent; no concurrency) and
// asserts the structural invariants of §4:
//   - every permutation is a true permutation of 0..14,
//   - border keys are strictly increasing by (slice, ordinal),
//   - at most one >8-byte (suffix/twig/layer) entry per slice,
//   - a twig holds 1..twigCap keys, their remainders non-empty and strictly
//     ascending, in tiny exactly when they fit there, and no nil value cell;
//     its shape's cells past the keys are nil,
//   - interior separators are strictly increasing and route consistently,
//   - children's parent pointers point back at their interior node,
//   - border lowkeys bound their contents, and the successor's from above,
//   - the border list is correctly doubly linked in key order,
//   - interior routing agrees with the border list: descending for lowkey(n)
//     arrives at n, for every live non-leftmost border n,
//   - no deleted node is reachable from a live interior.
func checkInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	checkLayerInvariants(t, tr, tr.rootHeader(), 0)
}

func checkLayerInvariants(t *testing.T, tr *Tree, root *nodeHeader, depth int) {
	t.Helper()
	if depth > 64 {
		t.Fatal("layer depth > 64: cycle?")
	}
	var borders []*borderNode
	collectBorders(t, root, nil, &borders)
	for i, n := range borders {
		perm := n.perm()
		seen := 0
		for r := 0; r < width; r++ {
			s := perm.slot(r)
			if s < 0 || s >= width || seen&(1<<uint(s)) != 0 {
				t.Fatalf("border %p: keyindex not a permutation: %v", n, perm.indexes())
			}
			seen |= 1 << uint(s)
		}
		prevSlice, prevOrd := uint64(0), -2
		for r := 0; r < perm.count(); r++ {
			slot := perm.slot(r)
			ks := n.keyslice[slot].Load()
			ko := ordOf(n.keylen(slot))
			if c := cmpKey(prevSlice, prevOrd, ks, ko); c >= 0 && prevOrd != -2 {
				t.Fatalf("border %p: keys out of order at rank %d: (%#x,%d) then (%#x,%d)\n%s",
					n, r, prevSlice, prevOrd, ks, ko, dumpBorder(n))
			}
			prevSlice, prevOrd = ks, ko
			if n.lowOrd >= 0 && ks < n.lowSlice {
				t.Fatalf("border %p: key slice %#x below lowkey %#x", n, ks, n.lowSlice)
			}
			if i+1 < len(borders) && ks >= borders[i+1].lowSlice {
				t.Fatalf("border %p: key slice %#x at or above its successor's lowkey %#x", n, ks, borders[i+1].lowSlice)
			}
			switch kl := n.keylen(slot); kl {
			case klLayer:
				sub := ascendToRoot((*nodeHeader)(n.loadLV(slot)))
				checkLayerInvariants(t, tr, sub, depth+1)
			case klTwig:
				checkTwig(t, n, (*twig)(n.loadLV(slot)))
			case klUnstable:
				t.Fatalf("border %p: slot %d left unstable", n, slot)
			default:
				if n.loadLV(slot) == nil {
					t.Fatalf("border %p: slot %d holds a nil value", n, slot)
				}
			}
		}
		// Doubly-linked list consistency.
		if i > 0 && n.prev.Load() != borders[i-1] {
			t.Fatalf("border %p: prev link broken", n)
		}
		if i > 0 && borders[i-1].next.Load() != n {
			t.Fatalf("border %p: next link broken", borders[i-1])
		}
		if i == 0 && n.lowOrd >= 0 {
			t.Fatalf("leftmost border %p does not have lowkey -inf", n)
		}
		if i > 0 && n.lowOrd < 0 {
			t.Fatalf("non-leftmost border %p has lowkey -inf", n)
		}
		if i > 0 {
			if got, _ := tr.findBorder(root, n.lowSlice); got != n {
				t.Fatalf("border %p: routing sends its lowkey %#x to %p", n, n.lowSlice, got)
			}
		}
	}
}

func checkTwig(t *testing.T, n *borderNode, tw *twig) {
	t.Helper()
	keys := tw.keys()
	cnt := keys.n()
	if cnt < 1 || cnt > twigCap {
		t.Fatalf("border %p: twig of %d keys", n, cnt)
	}
	_, w := twigHeader(keys[0])
	total := 0
	for j := 0; j < cnt; j++ {
		rem := keys.at(j)
		total += len(rem)
		if len(rem) == 0 {
			t.Fatalf("border %p: twig key %d has no remainder", n, j)
		}
		if j > 0 && bytes.Compare(keys.at(j-1), rem) >= 0 {
			t.Fatalf("border %p: twig keys out of order: %q then %q", n, keys.at(j-1), rem)
		}
		if tw.value(j) == nil {
			t.Fatalf("border %p: twig key %q has a nil cell", n, rem)
		}
	}
	for j := cnt; j < cellWords(cnt); j++ {
		if tw.cell(j).Load() != nil {
			t.Fatalf("border %p: twig of %d keys has a value in cell %d", n, cnt, j)
		}
	}
	if fits := keysSize(cnt, w, total) <= len(tw.tiny); fits != (tw.rems == nil) {
		t.Fatalf("border %p: twig remainders of %d B: in tiny %v", n, total, tw.rems == nil)
	}
}

// collectBorders walks interior structure, checking interior invariants, and
// appends border nodes left to right.
func collectBorders(t *testing.T, h *nodeHeader, parent *interiorNode, out *[]*borderNode) {
	t.Helper()
	v := h.Load()
	if occ.Deleted(v) {
		t.Fatalf("node %p, reachable from interior %p, is marked deleted", h, parent)
	}
	if parent != nil && h.parent.Load() != parent {
		t.Fatalf("node %p parent pointer does not match its parent", h)
	}
	if occ.Border(v) {
		*out = append(*out, h.border())
		return
	}
	in := h.interior()
	nk := int(in.nkeys.Load())
	if nk < 0 || nk > width {
		t.Fatalf("interior %p: nkeys %d out of range", in, nk)
	}
	var prev uint64
	for i := 0; i < nk; i++ {
		ks := in.keyslice[i].Load()
		if i > 0 && ks <= prev {
			t.Fatalf("interior %p: separators out of order", in)
		}
		prev = ks
	}
	for i := 0; i <= nk; i++ {
		c := in.child[i].Load()
		if c == nil {
			t.Fatalf("interior %p: nil child %d", in, i)
		}
		collectBorders(t, c, in, out)
	}
}

func dumpBorder(n *borderNode) string {
	tr := &Tree{}
	tr.root.Store(&n.h)
	_ = tr
	return "" // placeholder; full dumps via (*Tree).dump in dump_test.go
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
