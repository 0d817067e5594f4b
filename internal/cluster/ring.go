package cluster

import (
	"sort"
	"strconv"
)

// virtualNodes is how many ring points each node contributes. More points
// smooth the key distribution (stddev of shard load shrinks roughly with
// 1/sqrt(points)); 128 keeps the ring small enough that a lookup's binary
// search stays in cache.
const virtualNodes = 128

// Ring is a consistent-hash ring: each node contributes virtualNodes
// points at deterministic positions on a 64-bit hash circle, and a key is
// owned by the node whose point is the first at or clockwise of the key's
// hash. The mapping depends only on the addresses — not on construction
// order, process, or run — so tests can pin key→shard assignments as
// golden values and any future hash change is loud, and so every client
// of the same cluster computes the same owner for every key (the property
// that makes "no reply from the wrong shard" checkable at all).
//
// Determinism contract: the point for node a's i-th virtual node is
// fnv1a(a + "#" + itoa(i)), a key's position is fnv1a(key), and ties on
// identical point hashes break toward the smaller node index. Changing any
// of these, or virtualNodes, is a resharding event and must update TestRingGolden.
type Ring struct {
	points []ringPoint // sorted by hash, ties by node
}

type ringPoint struct {
	hash uint64
	node int
}

// NewRing builds the ring for the given node addresses. Node identity is
// the address string: the same address list always yields the same ring,
// and reordering the list only renumbers nodes (hash positions follow the
// address, not the index).
func NewRing(addrs []string) *Ring {
	r := &Ring{points: make([]ringPoint, 0, len(addrs)*virtualNodes)}
	for node, addr := range addrs {
		for i := 0; i < virtualNodes; i++ {
			h := fnv1a([]byte(addr + "#" + strconv.Itoa(i)))
			r.points = append(r.points, ringPoint{hash: h, node: node})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Owner maps a key to its owning node index.
func (r *Ring) Owner(key []byte) int {
	if len(r.points) == 0 {
		return 0
	}
	h := fnv1a(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: past the last point, the first point owns
	}
	return r.points[i].node
}

// fnv1a is the 64-bit FNV-1a hash run through a splitmix64 finalizer —
// small, allocation-free, and stable across Go versions (unlike maphash),
// which the golden ring test relies on. Raw FNV positions cluster badly on
// short near-identical inputs (vnode labels differ only in a decimal
// suffix), skewing ring arcs by 2x and worse; the finalizer's avalanche
// restores near-uniform arcs without giving up determinism.
func fnv1a(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	// splitmix64 finalizer (Stafford variant), bijective on uint64.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
