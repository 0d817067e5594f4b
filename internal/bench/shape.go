package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/value"
	"repro/internal/workload"
)

// Shape reproduces §6.2's structural observations about the tree the
// 1-to-10-byte-decimal put workload builds: the fraction of keys pushed
// into layer-1 trie-nodes, how tiny those trees stay (paper: 33% of keys,
// 2.3 keys per layer-1 tree at 140M keys — both grow with slice-collision
// density, i.e. with key count), what form they take here (a tree of up to
// four keys is a twig, not a border node) and what the tree costs in bytes
// by kind of object, and border-node occupancy (paper: B-tree nodes average
// 75% full; sequential inserts fill nodes completely thanks to §4.3's
// optimization).
func Shape(sc Scale) *Table {
	sc = sc.withDefaults()
	t := &Table{
		ID:      "shape",
		Title:   fmt.Sprintf("tree shape under the decimal put workload, %d keys (§6.2)", sc.Keys),
		Headers: []string{"metric", "measured", "paper (140M keys)"},
	}
	tr := core.New()
	gen := workload.Decimal(55)
	for i := 0; i < sc.Keys; i++ {
		k := gen.Next()
		tr.Put(k, value.New(k))
	}
	s, err := tr.Shape()
	if err != nil {
		panic(err)
	}
	t.Rows = append(t.Rows,
		[]string{"keys", fmt.Sprintf("%d", s.TotalKeys()), "140M"},
		[]string{"trie layers", fmt.Sprintf("%d", len(s.Layers)), "2"},
		[]string{"layer-1 key fraction", fmt.Sprintf("%.3f", s.KeysInLayer(1)), "0.33"},
		[]string{"avg keys per layer-1 tree", fmt.Sprintf("%.2f", s.AvgKeysPerTree(1)), "2.3"},
		[]string{"border-node fill", fmt.Sprintf("%.2f", s.BorderFill()), "~0.75"},
	)
	var twigs, trees, borders, interiors, bags, twigBytes int
	for d, l := range s.Layers {
		if d > 0 {
			twigs, trees = twigs+l.Twigs, trees+l.Trees
		}
		borders, interiors, bags, twigBytes = borders+l.BorderBytes, interiors+l.InteriorBytes, bags+l.BagBytes, twigBytes+l.TwigBytes
	}
	perKey := func(b int) string { return fmt.Sprintf("%.1f", float64(b)/float64(max(s.TotalKeys(), 1))) }
	t.Rows = append(t.Rows,
		[]string{"trees below layer 0 that are twigs", fmt.Sprintf("%d of %d", twigs, trees), "-"},
		[]string{"node bytes per key (unrounded): borders / interiors / suffix bags / twigs",
			perKey(borders) + " / " + perKey(interiors) + " / " + perKey(bags) + " / " + perKey(twigBytes), "-"},
	)

	// Sequential fill uses exactly-8-byte keys so the comparison isolates
	// split behavior (9-byte keys would measure layer-tree fill instead).
	seq := core.New()
	sgen := workload.Sequential("")
	for i := 0; i < sc.Keys; i++ {
		k := sgen.Next()
		seq.Put(k, value.New(k))
	}
	ss, err := seq.Shape()
	if err != nil {
		panic(err)
	}
	t.Rows = append(t.Rows,
		[]string{"border-node fill (sequential inserts)", fmt.Sprintf("%.2f", ss.BorderFill()), "~1.0 (§4.3)"},
	)
	t.Notes = append(t.Notes,
		"layer-1 population is driven by 8-byte slice collisions, so the fraction grows with key count; at laptop scale it is small but the per-tree size matches the paper",
	)
	return t
}
