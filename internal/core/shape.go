package core

// Tree-shape statistics (§6.2's structural observations): the paper reports
// that a 140M-key 1-to-10-byte-decimal put workload puts 33% of its keys in
// layer-1 trie-nodes with only 2.3 keys per layer-1 tree on average, and
// that B-tree nodes average 75% full. Shape walks the physical structure
// and reports the equivalents, letting those claims be checked directly.
//
// Shape takes no locks; run it on a quiescent tree (it is a diagnostic, not
// an operation).

// LayerShape describes one trie depth.
type LayerShape struct {
	Trees         int // B+-trees at this depth (layer 0 has exactly one)
	BorderNodes   int
	InteriorNodes int
	Keys          int // keys stored at this depth (excluding layer links)
	LayerLinks    int // links to depth+1 trees
	MaxBTreeDepth int // deepest root-to-border path among this layer's trees
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
// (live keys plus layer links over width).
func (s ShapeStats) BorderFill() float64 {
	nodes, slots := 0, 0
	for _, l := range s.Layers {
		nodes += l.BorderNodes
		slots += l.Keys + l.LayerLinks
	}
	if nodes == 0 {
		return 0
	}
	return float64(slots) / float64(nodes*width)
}

// Shape walks the tree and returns its structural statistics.
func (t *Tree) Shape() ShapeStats {
	var s ShapeStats
	t.shapeWalk(t.rootHeader(), 0, &s)
	return s
}

// Note: the walk must index s.Layers afresh on every update — recursion
// into deeper layers appends to the slice, which may reallocate it, so a
// held element pointer would go stale.
func (t *Tree) shapeWalk(root *nodeHeader, depth int, s *ShapeStats) {
	for len(s.Layers) <= depth {
		s.Layers = append(s.Layers, LayerShape{})
	}
	s.Layers[depth].Trees++
	d := t.shapeNode(root, depth, 1, s)
	if d > s.Layers[depth].MaxBTreeDepth {
		s.Layers[depth].MaxBTreeDepth = d
	}
}

// shapeNode returns the max border depth below h within its own B+-tree.
func (t *Tree) shapeNode(h *nodeHeader, depth, btDepth int, s *ShapeStats) int {
	v := h.version.Load()
	if isBorder(v) {
		n := h.border()
		s.Layers[depth].BorderNodes++
		perm := n.perm()
		for r := 0; r < perm.count(); r++ {
			slot := perm.slot(r)
			if n.keylen(slot) == klLayer {
				s.Layers[depth].LayerLinks++
				t.shapeWalk(ascendToRoot((*nodeHeader)(n.loadLV(slot))), depth+1, s)
			} else {
				s.Layers[depth].Keys++
			}
		}
		return btDepth
	}
	in := h.interior()
	s.Layers[depth].InteriorNodes++
	nk := int(in.nkeys.Load())
	max := btDepth
	for i := 0; i <= nk; i++ {
		if c := in.child[i].Load(); c != nil {
			if d := t.shapeNode(c, depth, btDepth+1, s); d > max {
				max = d
			}
		}
	}
	return max
}
