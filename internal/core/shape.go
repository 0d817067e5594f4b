package core

// Tree-shape statistics (§6.2's structural observations): the paper reports
// that a 140M-key 1-to-10-byte-decimal put workload puts 33% of its keys in
// layer-1 trie-nodes with only 2.3 keys per layer-1 tree on average, and
// that B-tree nodes average 75% full. Shape walks the physical structure
// and reports the equivalents, letting those claims be checked directly.
// The same walk is the one check of §4's structural invariants: it holds
// every node to audit.go's statements as it counts it.
//
// Shape takes no locks; run it on a quiescent tree (it is a diagnostic, not
// an operation).

import (
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/occ"
)

// LayerShape describes one trie depth. A twig in a depth-d border is a
// depth-d+1 tree in its smallest form, and is counted there: among Trees,
// with its keys among Keys, so that the paper's "keys per layer-1 tree" is
// the same statistic whichever form the small trees take.
type LayerShape struct {
	Trees         int // B+-trees and twigs at this depth (layer 0 has exactly one tree)
	Twigs         int // the Trees that are twigs
	BorderNodes   int
	InteriorNodes int
	Keys          int // keys stored at this depth (excluding layer links)
	TwigKeys      int // the Keys that are in twigs
	LayerLinks    int // links to depth+1 trees and twigs

	// Bytes by kind of object, values excluded, as asked of the allocator —
	// which rounds every object up to a size class (a border to 320 B); the
	// walk leaves that to a caller that has the classes (TestDecimalCensus).
	BorderBytes   int
	InteriorBytes int
	BagBytes      int // suffix bags
	TwigBytes     int // twigs, and the remainders too long to lie in them
}

// borderSlots is how many of the layer's border slots are in use: its keys
// outside twigs, and its links to the twigs and layers below.
func (l LayerShape) borderSlots() int { return l.Keys - l.TwigKeys + l.LayerLinks }

// NodeBytes sums the layer's heap bytes over the kinds.
func (l LayerShape) NodeBytes() int {
	return l.BorderBytes + l.InteriorBytes + l.BagBytes + l.TwigBytes
}

// ShapeStats is what Shape's walk counts: the whole tree when the walk finds
// no invariant broken, and otherwise the part it walked.
type ShapeStats struct {
	Layers []LayerShape
}

// TotalKeys sums keys across layers.
func (s ShapeStats) TotalKeys() int {
	n := 0
	for _, l := range s.Layers {
		n += l.Keys
	}
	return n
}

// KeysInLayer returns the fraction of all keys stored at trie depth d.
func (s ShapeStats) KeysInLayer(d int) float64 {
	t := s.TotalKeys()
	if t == 0 || d >= len(s.Layers) {
		return 0
	}
	return float64(s.Layers[d].Keys) / float64(t)
}

// AvgKeysPerTree returns the mean key count of depth-d trees (the paper's
// "average number of keys per layer-1 trie-node").
func (s ShapeStats) AvgKeysPerTree(d int) float64 {
	if d >= len(s.Layers) || s.Layers[d].Trees == 0 {
		return 0
	}
	return float64(s.Layers[d].Keys) / float64(s.Layers[d].Trees)
}

// BorderFill returns the mean occupancy of border nodes across all layers
// (live keys outside twigs, plus layer and twig links, over width).
func (s ShapeStats) BorderFill() float64 {
	nodes, slots := 0, 0
	for _, l := range s.Layers {
		nodes += l.BorderNodes
		slots += l.borderSlots()
	}
	if nodes == 0 {
		return 0
	}
	return float64(slots) / float64(nodes*width)
}

// Shape walks the tree once, and returns its structural statistics and the
// first of §4's invariants that it finds broken. It checks every node with
// audit.go's statements, and, for each B+-tree, that the border list is the
// walk's left-to-right order and that descending for lowkey(n) arrives at n.
// On an error the statistics are those of the part walked.
func (t *Tree) Shape() (ShapeStats, error) { return t.shape(func(n int) int { return n }) }

// shape is Shape with each object's bytes counted as round says.
func (t *Tree) shape(round func(int) int) (ShapeStats, error) {
	w := walk{t: t, round: round}
	err := w.tree(t.rootHeader(), 0)
	return w.s, err
}

// layer returns depth's entry, growing s to hold it. The walk must ask
// afresh on every update — recursion into deeper layers appends to the slice,
// which may reallocate it, so a held element pointer would go stale.
func (s *ShapeStats) layer(depth int) *LayerShape {
	for len(s.Layers) <= depth {
		s.Layers = append(s.Layers, LayerShape{})
	}
	return &s.Layers[depth]
}

// walk is one pass of shape, and the statistics so far.
type walk struct {
	t     *Tree
	round func(int) int
	s     ShapeStats
	path  []*nodeHeader // the roots of the trees being walked, layer 0's first
}

// tree walks the B+-tree rooted at root, at trie depth depth. Once the walk
// has checked all of the tree's nodes, so that no descent meets a broken
// one, it checks routing for each border but the leftmost, along the prev
// links that the walk found in order.
func (w *walk) tree(root *nodeHeader, depth int) error {
	if slices.Contains(w.path, root) {
		return fmt.Errorf("trie depth %d: a layer link to %p, the root of a tree the walk is in", depth, root)
	}
	if v := root.Load(); !occ.Root(v) || occ.Deleted(v) || root.parent.Load() != nil {
		return fmt.Errorf("tree root %p is not a live root: version %#x, parent %p", root, v, root.parent.Load())
	}
	w.s.layer(depth).Trees++
	var last *borderNode
	w.path = append(w.path, root)
	if err := w.node(root, depth, &last); err != nil {
		return err
	}
	w.path = w.path[:depth]
	if next := last.next.Load(); next != nil {
		return fmt.Errorf("rightmost border %p: next link %p", last, next)
	}
	for n := last; n.prev.Load() != nil; n = n.prev.Load() {
		if got, _ := w.t.findBorder(root, n.lowSlice); got != n {
			return fmt.Errorf("border %p: routing sends its lowkey %#x to %p", n, n.lowSlice, got)
		}
	}
	return nil
}

// node walks the subtree under h, of a B+-tree at trie depth depth; *last is
// the border that the walk of the tree visited last. It is the one recursion
// over interior children.
func (w *walk) node(h *nodeHeader, depth int, last **borderNode) error {
	l := w.s.layer(depth)
	if !occ.Border(h.Load()) {
		in := h.interior()
		l.InteriorNodes++
		l.InteriorBytes += w.round(int(unsafe.Sizeof(*in)))
		if err := checkInterior(in); err != nil {
			return err
		}
		for i := 0; i <= int(in.nkeys.Load()); i++ {
			if err := w.node(in.child[i].Load(), depth, last); err != nil {
				return err
			}
		}
		return nil
	}
	n := h.border()
	l.BorderNodes++
	l.BorderBytes += w.round(int(unsafe.Sizeof(*n)))
	l.BagBytes += w.round(len(n.bag()))
	if err := checkBorder(n); err != nil {
		return err
	}
	if prev := n.prev.Load(); prev != *last {
		return fmt.Errorf("border %p: prev link %p, but the walk came from %p", n, prev, *last)
	}
	if *last != nil && (*last).next.Load() != n {
		return fmt.Errorf("border %p: next link %p, but the walk went on to %p", *last, (*last).next.Load(), n)
	}
	*last = n
	perm := n.perm()
	for r := 0; r < perm.count(); r++ {
		slot := perm.slot(r)
		switch kl, lv, _ := n.readSlot(slot); kl {
		case klLayer:
			w.s.Layers[depth].LayerLinks++
			if err := w.tree(ascendToRoot((*nodeHeader)(lv)), depth+1); err != nil {
				return err
			}
		case klTwig:
			w.s.Layers[depth].LayerLinks++
			tw := (*twig)(lv)
			if err := checkTwig(tw); err != nil {
				return fmt.Errorf("border %p: key (%#x,%d) at rank %d: %w", n, n.keyslice[slot].Load(), ordOf(kl), r, err)
			}
			keys := tw.keys().n()
			l := w.s.layer(depth + 1)
			l.Trees++
			l.Twigs++
			l.Keys += keys
			l.TwigKeys += keys
			l.TwigBytes += w.round(int(tw.size()))
			if tw.rems != nil {
				l.TwigBytes += w.round(len(tw.keys()))
			}
		default:
			w.s.Layers[depth].Keys++
		}
	}
	return nil
}
