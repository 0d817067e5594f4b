package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/occ"
)

// dump renders the physical structure of one B+-tree layer (and recursively
// its sub-layers) for debugging.
func (t *Tree) dump() string {
	var b strings.Builder
	dumpNode(&b, t.rootHeader(), 0)
	return b.String()
}

func dumpNode(b *strings.Builder, h *nodeHeader, indent int) {
	pad := strings.Repeat("  ", indent)
	v := h.Load()
	if occ.Border(v) {
		n := h.border()
		fmt.Fprintf(b, "%sborder %p v=%#x low=(%#x,%d) prev=%p next=%p\n",
			pad, n, v, n.lowSlice, n.lowOrd, n.prev.Load(), n.next.Load())
		perm := n.perm()
		for r := 0; r < perm.count(); r++ {
			slot := perm.slot(r)
			kl := n.keylen(slot)
			ks := n.keyslice[slot].Load()
			switch kl {
			case klLayer:
				fmt.Fprintf(b, "%s  [%d] slice=%#x LAYER:\n", pad, r, ks)
				dumpNode(b, (*nodeHeader)(n.loadLV(slot)), indent+2)
			case klSuffix:
				fmt.Fprintf(b, "%s  [%d] slice=%#x suffix=%q\n", pad, r, ks, n.bag().suffix(slot))
			default:
				fmt.Fprintf(b, "%s  [%d] slice=%#x len=%d\n", pad, r, ks, kl)
			}
		}
		return
	}
	in := h.interior()
	nk := int(in.nkeys.Load())
	fmt.Fprintf(b, "%sinterior %p v=%#x nkeys=%d\n", pad, in, v, nk)
	for i := 0; i <= nk; i++ {
		if i > 0 {
			fmt.Fprintf(b, "%s  key[%d]=%#x\n", pad, i-1, in.keyslice[i-1].Load())
		}
		dumpNode(b, in.child[i].Load(), indent+1)
	}
}

// TestDumpSmoke keeps the dump helper compiled and sane.
func TestDumpSmoke(t *testing.T) {
	tr := New()
	put(tr, "a", "1")
	put(tr, "verylongkey-abcdefgh", "2")
	s := tr.dump()
	if !strings.Contains(s, "border") {
		t.Fatalf("dump missing border: %s", s)
	}
}
