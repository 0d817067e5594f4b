package core

// The structural invariants of §4, each stated for one node. Shape's walk
// (shape.go) holds every node of a quiescent tree to them, and checks what
// relates the nodes itself. Nothing here recurses or locks, so a caller that
// holds a node's lock can check that node alone.

import (
	"bytes"
	"fmt"

	"repro/internal/occ"
)

// check reports whether keyindex is a true permutation of the fifteen slots.
func (p permutation) check() error {
	seen := 0
	for r := 0; r < width; r++ {
		s := p.slot(r)
		if s >= width || seen&(1<<s) != 0 {
			return fmt.Errorf("keyindex %v is not a permutation", p.indexes())
		}
		seen |= 1 << s
	}
	return nil
}

// checkBorder checks border n:
//   - its permutation passes check;
//   - its keys ascend strictly by (slice, ordinal), so a slice has at most
//     one key longer than eight bytes (a suffix key, a twig or a layer);
//   - each key's slice is at or above lowkey(n), and below the lowkey of n's
//     successor;
//   - no slot is left unstable, a suffix key has a suffix, and no value or
//     link is nil;
//   - lowkey(n) is -inf exactly when n has no predecessor: the leftmost
//     border of a tree, and no other.
func checkBorder(n *borderNode) error {
	perm := n.perm()
	if err := perm.check(); err != nil {
		return fmt.Errorf("border %p: %w", n, err)
	}
	if (n.prev.Load() == nil) != (n.lowOrd < 0) {
		return fmt.Errorf("border %p: prev link %p and lowkey (%#x,%d): lowkey -inf is the leftmost border's alone", n, n.prev.Load(), n.lowSlice, n.lowOrd)
	}
	next := n.next.Load()
	var prevSlice uint64
	prevOrd := -1
	for r := 0; r < perm.count(); r++ {
		slot := perm.slot(r)
		ks, kl := n.keyslice[slot].Load(), n.keylen(slot)
		ko := ordOf(kl)
		switch {
		case kl == klUnstable || kl > klTwig:
			return fmt.Errorf("border %p: key (%#x,%d) at rank %d left unstable (key length %d)", n, ks, ko, r, kl)
		case kl == klSuffix && len(n.bag().suffix(slot)) == 0:
			return fmt.Errorf("border %p: suffix key (%#x,%d) at rank %d has an empty suffix", n, ks, ko, r)
		case n.loadLV(slot) == nil:
			return fmt.Errorf("border %p: key (%#x,%d) at rank %d holds a nil value", n, ks, ko, r)
		case r > 0 && cmpKey(prevSlice, prevOrd, ks, ko) >= 0:
			return fmt.Errorf("border %p: keys out of order at rank %d: (%#x,%d) then (%#x,%d)", n, r, prevSlice, prevOrd, ks, ko)
		case n.lowOrd >= 0 && ks < n.lowSlice:
			return fmt.Errorf("border %p: key (%#x,%d) at rank %d below lowkey %#x", n, ks, ko, r, n.lowSlice)
		case next != nil && ks >= next.lowSlice:
			return fmt.Errorf("border %p: key (%#x,%d) at rank %d at or above successor %p's lowkey %#x", n, ks, ko, r, next, next.lowSlice)
		}
		prevSlice, prevOrd = ks, ko
	}
	return nil
}

// checkTwig checks twig tw: it holds 1 to twigCap keys, whose remainders
// are non-empty and strictly ascending, each with a value; the cells its
// shape has past the keys are nil; and the remainders lie in tiny exactly
// when they fit there.
func checkTwig(tw *twig) error {
	keys := tw.keys()
	cnt := keys.n()
	if cnt < 1 || cnt > twigCap {
		return fmt.Errorf("twig %p holds %d keys", tw, cnt)
	}
	_, w := twigHeader(keys[0])
	total := 0
	for j := 0; j < cnt; j++ {
		rem := keys.at(j)
		total += len(rem)
		switch {
		case len(rem) == 0:
			return fmt.Errorf("twig %p: key %d has no remainder", tw, j)
		case j > 0 && bytes.Compare(keys.at(j-1), rem) >= 0:
			return fmt.Errorf("twig %p: remainders out of order at %d: %q then %q", tw, j, keys.at(j-1), rem)
		case tw.value(j) == nil:
			return fmt.Errorf("twig %p: key %d (%q) has a nil cell", tw, j, rem)
		}
	}
	for j := cnt; j < cellWords(cnt); j++ {
		if tw.cell(j).Load() != nil {
			return fmt.Errorf("twig %p of %d keys has a value in cell %d", tw, cnt, j)
		}
	}
	if fits := keysSize(cnt, w, total) <= len(tw.tiny); fits != (tw.rems == nil) {
		return fmt.Errorf("twig %p: %d keys of %d B of remainders, in tiny %v", tw, cnt, total, tw.rems == nil)
	}
	return nil
}

// checkInterior checks interior in: it has 0 to width separators, strictly
// ascending, and each of its children is there, points back at in as its
// parent, and is marked neither deleted nor root.
func checkInterior(in *interiorNode) error {
	nk := int(in.nkeys.Load())
	if nk < 0 || nk > width {
		return fmt.Errorf("interior %p: nkeys %d", in, nk)
	}
	for i := 1; i < nk; i++ {
		if a, b := in.keyslice[i-1].Load(), in.keyslice[i].Load(); a >= b {
			return fmt.Errorf("interior %p: separators %d and %d out of order: %#x then %#x", in, i-1, i, a, b)
		}
	}
	for i := 0; i <= nk; i++ {
		c := in.child[i].Load()
		switch {
		case c == nil:
			return fmt.Errorf("interior %p: nil child %d", in, i)
		case c.parent.Load() != in:
			return fmt.Errorf("interior %p: child %d (%p) has parent %p", in, i, c, c.parent.Load())
		case occ.Deleted(c.Load()):
			return fmt.Errorf("interior %p: child %d (%p) is marked deleted", in, i, c)
		case occ.Root(c.Load()):
			return fmt.Errorf("interior %p: child %d (%p) is marked root", in, i, c)
		}
	}
	return nil
}
