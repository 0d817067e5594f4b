package seqtree

import (
	"bytes"

	"repro/internal/value"
)

// Remove deletes key, returning the removed value. Empty border nodes are
// removed from their parents immediately (no deferral is needed without
// concurrency), and empty trie layers collapse back into the parent slot.
func (t *Tree) Remove(key []byte) (*value.Value, bool) {
	old, removed, _ := removeLayer(&t.root, key)
	if removed {
		t.count--
	}
	return old, removed
}

// removeLayer removes key's remainder from the layer tree at *rootp.
// emptied reports that the whole layer became empty.
func removeLayer(rootp **node, k []byte) (old *value.Value, removed, emptied bool) {
	slice, ord := keySlice(k), keyOrd(k)
	n := descend(*rootp, slice)
	rank, found := n.search(slice, ord)
	if !found {
		return nil, false, false
	}
	switch n.keylen[rank] {
	case klLayer:
		old, removed, subEmpty := removeLayer(&n.layer[rank], k[8:])
		if subEmpty {
			// Collapse the empty layer: drop the link slot.
			n.removeAt(rank)
			cleanupAfterRemove(rootp, n)
		}
		return old, removed, layerEmpty(*rootp)
	case klSuffix:
		if !bytes.Equal(n.suffix[rank], k[8:]) {
			return nil, false, false
		}
	}
	old = n.val[rank]
	n.removeAt(rank)
	cleanupAfterRemove(rootp, n)
	return old, true, layerEmpty(*rootp)
}

// layerEmpty reports whether a layer tree holds no keys at all.
func layerEmpty(root *node) bool { return root.border && root.nkeys == 0 }

func (n *node) removeAt(rank int) {
	copy(n.slices[rank:], n.slices[rank+1:n.nkeys])
	copy(n.keylen[rank:], n.keylen[rank+1:n.nkeys])
	copy(n.suffix[rank:], n.suffix[rank+1:n.nkeys])
	copy(n.val[rank:], n.val[rank+1:n.nkeys])
	copy(n.layer[rank:], n.layer[rank+1:n.nkeys])
	n.nkeys--
	n.suffix[n.nkeys], n.val[n.nkeys], n.layer[n.nkeys] = nil, nil, nil
}

// cleanupAfterRemove unlinks n if it emptied (unless it is the layer root),
// removing empty interior ancestors as it goes — deletion without
// rebalancing, as in the paper. A root interior left with one child
// collapses the tree height.
func cleanupAfterRemove(rootp **node, n *node) {
	if n.nkeys > 0 || *rootp == n {
		return
	}
	path := pathToBorder(*rootp, n)
	child := n
	for i := len(path) - 1; i >= 0; i-- {
		p := path[i]
		idx := -1
		for j := 0; j <= p.nkeys; j++ {
			if p.child[j] == child {
				idx = j
				break
			}
		}
		if idx < 0 {
			return
		}
		if p.nkeys == 0 {
			// p's only child is going away: p empties too.
			p.child[0] = nil
			if p == *rootp {
				*rootp = &node{border: true}
				return
			}
			child = p
			continue
		}
		if idx == 0 {
			copy(p.slices[0:], p.slices[1:p.nkeys])
			copy(p.child[0:], p.child[1:p.nkeys+1])
		} else {
			copy(p.slices[idx-1:], p.slices[idx:p.nkeys])
			copy(p.child[idx:], p.child[idx+1:p.nkeys+1])
		}
		p.child[p.nkeys] = nil
		p.nkeys--
		if p == *rootp && p.nkeys == 0 {
			*rootp = p.child[0] // collapse root height
		}
		return
	}
}

// pathToBorder routes to an empty border node by searching exhaustively
// from the parent chain recorded during descent. Because the node is empty
// it has no slice to route by, so we walk the tree; removal is off the hot
// path and sequential trees are small per layer.
func pathToBorder(root, target *node) []*node {
	var dfs func(n *node, acc []*node) []*node
	if root == target {
		return nil
	}
	dfs = func(n *node, acc []*node) []*node {
		if n.border {
			return nil
		}
		acc = append(acc, n)
		for i := 0; i <= n.nkeys; i++ {
			c := n.child[i]
			if c == target {
				return append([]*node(nil), acc...)
			}
			if c != nil && !c.border {
				if r := dfs(c, acc); r != nil {
					return r
				}
			}
		}
		return nil
	}
	return dfs(root, nil)
}

// Scan visits keys >= start in order until fn returns false.
func (t *Tree) Scan(start []byte, fn func(key []byte, v *value.Value) bool) {
	scanLayer(t.root, start, nil, fn)
}

func scanLayer(root *node, start, prefix []byte, fn func([]byte, *value.Value) bool) bool {
	return scanNode(root, start, prefix, fn)
}

func scanNode(n *node, start, prefix []byte, fn func([]byte, *value.Value) bool) bool {
	if !n.border {
		slice := keySlice(start)
		from := 0
		if len(start) > 0 {
			for from < n.nkeys && slice >= n.slices[from] {
				from++
			}
		}
		for i := from; i <= n.nkeys; i++ {
			s := start
			if i > from {
				s = nil
			}
			if !scanNode(n.child[i], s, prefix, fn) {
				return false
			}
		}
		return true
	}
	for i := 0; i < n.nkeys; i++ {
		var rem []byte
		switch n.keylen[i] {
		case klLayer:
			rem = sliceBytes(n.slices[i], 8)
			var substart []byte
			if start != nil {
				if bytes.HasPrefix(start, rem) {
					substart = start[8:]
				} else if bytes.Compare(rem, start) < 0 {
					continue
				}
			}
			full := append(append([]byte(nil), prefix...), rem...)
			if !scanLayer(n.layer[i], substart, full, fn) {
				return false
			}
			continue
		case klSuffix:
			rem = append(sliceBytes(n.slices[i], 8), n.suffix[i]...)
		default:
			rem = sliceBytes(n.slices[i], int(n.keylen[i]))
		}
		if start != nil && bytes.Compare(rem, start) < 0 {
			continue
		}
		full := append(append([]byte(nil), prefix...), rem...)
		if !fn(full, n.val[i]) {
			return false
		}
	}
	return true
}

func sliceBytes(s uint64, n int) []byte {
	var buf [8]byte
	for i := 7; i >= 0; i-- {
		buf[i] = byte(s)
		s >>= 8
	}
	out := make([]byte, n)
	copy(out, buf[:n])
	return out
}
