package core

// Tree-shape statistics (§6.2's structural observations): the paper reports
// that a 140M-key 1-to-10-byte-decimal put workload puts 33% of its keys in
// layer-1 trie-nodes with only 2.3 keys per layer-1 tree on average, and
// that B-tree nodes average 75% full. Shape walks the physical structure
// and reports the equivalents, letting those claims be checked directly.
//
// Shape takes no locks; run it on a quiescent tree (it is a diagnostic, not
// an operation).

import (
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
	MaxBTreeDepth int // deepest root-to-border path among this layer's trees

	// Bytes by kind of object, values excluded, as asked of the allocator —
	// which rounds every object up to a size class (a border to 320 B); the
	// walk leaves that to a caller that has the classes (TestDecimalCensus).
	BorderBytes   int
	InteriorBytes int
	BagBytes      int // suffix bags
	TwigBytes     int // twigs, and the remainders too long to lie in them
}

// NodeBytes sums the layer's heap bytes over the kinds.
func (l LayerShape) NodeBytes() int {
	return l.BorderBytes + l.InteriorBytes + l.BagBytes + l.TwigBytes
}

// ShapeStats is the result of a structure walk.
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
		slots += l.Keys - l.TwigKeys + l.LayerLinks
	}
	if nodes == 0 {
		return 0
	}
	return float64(slots) / float64(nodes*width)
}

// Shape walks the tree and returns its structural statistics.
func (t *Tree) Shape() ShapeStats { return t.shape(func(n int) int { return n }) }

// shape is Shape with each object's bytes counted as round says.
func (t *Tree) shape(round func(int) int) ShapeStats {
	var s ShapeStats
	t.shapeWalk(t.rootHeader(), 0, &s, round)
	return s
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

func (t *Tree) shapeWalk(root *nodeHeader, depth int, s *ShapeStats, round func(int) int) {
	s.layer(depth).Trees++
	d := t.shapeNode(root, depth, 1, s, round)
	if d > s.Layers[depth].MaxBTreeDepth {
		s.Layers[depth].MaxBTreeDepth = d
	}
}

// shapeNode returns the max border depth below h within its own B+-tree.
func (t *Tree) shapeNode(h *nodeHeader, depth, btDepth int, s *ShapeStats, round func(int) int) int {
	v := h.Load()
	if occ.Border(v) {
		n := h.border()
		s.Layers[depth].BorderNodes++
		s.Layers[depth].BorderBytes += round(int(unsafe.Sizeof(*n)))
		s.Layers[depth].BagBytes += round(len(n.bag()))
		perm := n.perm()
		for r := 0; r < perm.count(); r++ {
			switch kl, lv, _ := n.readSlot(perm.slot(r)); kl {
			case klLayer:
				s.Layers[depth].LayerLinks++
				t.shapeWalk(ascendToRoot((*nodeHeader)(lv)), depth+1, s, round)
			case klTwig:
				s.Layers[depth].LayerLinks++
				tw := (*twig)(lv)
				keys := tw.keys().n()
				l := s.layer(depth + 1)
				l.Trees++
				l.Twigs++
				l.Keys += keys
				l.TwigKeys += keys
				l.TwigBytes += round(int(tw.size()))
				if tw.rems != nil {
					l.TwigBytes += round(len(tw.keys()))
				}
			default:
				s.Layers[depth].Keys++
			}
		}
		return btDepth
	}
	in := h.interior()
	s.Layers[depth].InteriorNodes++
	s.Layers[depth].InteriorBytes += round(int(unsafe.Sizeof(*in)))
	nk := int(in.nkeys.Load())
	max := btDepth
	for i := 0; i <= nk; i++ {
		if c := in.child[i].Load(); c != nil {
			if d := t.shapeNode(c, depth, btDepth+1, s, round); d > max {
				max = d
			}
		}
	}
	return max
}
