package cluster

import (
	"fmt"
	"testing"
)

// TestRingGolden pins the ring's key→shard mapping as golden values. Every
// client of a cluster must compute the same owner for every key — that is
// the property the torture harness's "no reply from the wrong shard"
// assertion rests on — so any change to the hash, the vnode labeling, or
// the tie-break is a resharding event and must fail here loudly, not slip
// silently into a deployment where old and new clients disagree about
// ownership.
func TestRingGolden(t *testing.T) {
	r := NewRing([]string{"node-a:7500", "node-b:7500", "node-c:7500"})
	golden := []struct {
		key  string
		node int
	}{
		{"alpha", 2},
		{"bravo", 0},
		{"charlie", 0},
		{"delta", 0},
		{"echo", 2},
		{"foxtrot", 0},
		{"golf", 1},
		{"hotel", 2},
		{"india", 2},
		{"juliet", 2},
		{"kilo", 1},
		{"lima", 0},
		{"", 2},
		{"user:0001", 0},
		{"user:0002", 1},
		{"user:0003", 2},
	}
	for _, g := range golden {
		if got := r.Owner([]byte(g.key)); got != g.node {
			t.Errorf("Owner(%q) = %d, golden %d — the ring hash changed; this is a resharding event",
				g.key, got, g.node)
		}
	}
}

// Two rings over the same addresses must agree exactly; the ring must not
// depend on construction order of anything internal.
func TestRingDeterministic(t *testing.T) {
	addrs := []string{"h1:1", "h2:2", "h3:3", "h4:4"}
	a, b := NewRing(addrs), NewRing(addrs)
	for i := 0; i < 10_000; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("rings over identical addrs disagree on %q", k)
		}
	}
}

// Key distribution across shards must be roughly uniform — a structurally
// skewed ring silently turns one node into the bottleneck. The bound is
// loose (each shard within 2x of fair share) because consistent hashing
// with finite vnodes has real variance; the regression this guards against
// is the pathological clustering a weak point hash produces.
func TestRingBalance(t *testing.T) {
	const nodes, keys = 3, 30_000
	addrs := make([]string, nodes)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("node-%c:7500", 'a'+i)
	}
	r := NewRing(addrs)
	counts := make([]int, nodes)
	for i := 0; i < keys; i++ {
		counts[r.Owner([]byte(fmt.Sprintf("key-%06d", i)))]++
	}
	fair := keys / nodes
	for n, c := range counts {
		if c < fair/2 || c > fair*2 {
			t.Errorf("node %d owns %d of %d keys (fair share %d): ring is structurally skewed %v",
				n, c, keys, fair, counts)
		}
	}
}

// Removing one node must not reshuffle keys among the survivors — the
// consistent-hashing property that makes rebalance (future work) cheap:
// only the dead node's keys move.
func TestRingConsistency(t *testing.T) {
	full := NewRing([]string{"a:1", "b:1", "c:1"})
	reduced := NewRing([]string{"a:1", "b:1"})
	for i := 0; i < 10_000; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		was := full.Owner(k)
		if was == 2 {
			continue // the removed node's keys may go anywhere
		}
		if now := reduced.Owner(k); now != was {
			t.Fatalf("key %q moved %d→%d though its owner survived", k, was, now)
		}
	}
}
