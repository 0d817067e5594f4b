package cluster

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/kvstore"
	"repro/internal/kvsuite"
	"repro/internal/model"
	"repro/internal/server"
)

// testNode is one live in-process server for cluster tests.
type testNode struct {
	store *kvstore.Store
	srv   *server.Server
	addr  string
}

// startNodes brings up n independent in-memory stores, each behind its own
// TCP server.
func startNodes(t *testing.T, n int) []testNode {
	t.Helper()
	nodes := make([]testNode, n)
	for i := range nodes {
		store, err := kvstore.Open(kvstore.Config{})
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(store, 2)
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		nodes[i] = testNode{store: store, srv: srv, addr: srv.Addr().String()}
		t.Cleanup(func() {
			srv.Close()
			store.Close()
		})
	}
	return nodes
}

func addrsOf(nodes []testNode) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.addr
	}
	return out
}

func newCluster(t *testing.T, addrs []string, tm timing) *Cluster {
	t.Helper()
	c, err := newWithTiming(addrs, tm)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// fastTiming keeps failure-detection latencies test-sized.
func fastTiming() timing {
	return timing{
		dial:     500 * time.Millisecond,
		op:       time.Second,
		failures: 2,
		downFor:  100 * time.Millisecond,
		probe:    20 * time.Millisecond,
	}
}

// TestKVSuite runs the wire suite against a Cluster of one node, of three,
// and of three dialed through netfault proxies with no fault armed.
func TestKVSuite(t *testing.T) {
	for _, tc := range []struct {
		name    string
		nodes   int
		proxied bool
	}{{"one-node", 1, false}, {"three-nodes", 3, false}, {"three-nodes-proxied", 3, true}} {
		t.Run(tc.name, func(t *testing.T) {
			nodes := startNodes(t, tc.nodes)
			addrs := addrsOf(nodes)
			if tc.proxied {
				_, addrs = proxied(t, nodes)
			}
			kvsuite.Run(t, kvsuite.Target{KV: newCluster(t, addrs, defaultTiming).KV, Ranges: tc.nodes == 1})
		})
	}
}

// TestClusterRoutesToOwners writes keys one at a time across a 3-node
// cluster: each write must land on its key's ring owner (verified against
// the stores directly), every node must own some keys, each key must read
// back the value and version internal/model holds for it, and a single
// GetRange is refused.
func TestClusterRoutesToOwners(t *testing.T) {
	nodes := startNodes(t, 3)
	cl := newCluster(t, addrsOf(nodes), fastTiming())

	const n = 300
	m := model.New()
	for i := 0; i < n; i++ {
		k, v := fmt.Sprintf("key-%04d", i), []byte(fmt.Sprintf("val-%04d", i))
		ver, err := cl.PutSimple([]byte(k), v)
		if err != nil {
			t.Fatal(err)
		}
		m.Put(k, ver, 0, model.ColPut{Data: v})
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}

	// Each key must be resident on exactly its ring owner, and read back what
	// the model holds.
	perNode := make([]int, 3)
	for _, p := range m.Range("", n, 0) {
		k := []byte(p.Key)
		owner := cl.Owner(k)
		for ni, node := range nodes {
			_, ok := node.store.Session(0).GetValue(k)
			if ok != (ni == owner) {
				t.Fatalf("key %q resident=%v on node %d, ring owner is %d", k, ok, ni, owner)
			}
		}
		perNode[owner]++
		cols, ver, ok, err := cl.Get(k, nil)
		if err != nil || !ok || string(cols[0]) != string(p.Cols[0]) || ver != p.Version {
			t.Fatalf("key %q: %q version %d ok=%v err=%v, want %s", k, cols, ver, ok, err, p.State)
		}
	}
	for ni, c := range perNode {
		if c == 0 {
			t.Fatalf("node %d owns no keys of %d — ring distribution collapsed: %v", ni, n, perNode)
		}
	}

	// A single range spans shards: on three nodes it is refused rather than
	// answered from one shard's pairs.
	if pairs, err := cl.GetRange([]byte("key-0000"), 10, nil); err == nil {
		t.Fatalf("GetRange across 3 nodes returned %d pairs, want an error", len(pairs))
	}
}

// TestClusterStatsAggregate checks StatsAggregate sums numeric server
// metrics across nodes and reports per-node health numerically —
// node<i>_state follows breaker_state's all-numeric rule (the
// flush_last_error precedent: string-valued stats must never leak into a
// surface integer-parsing consumers read).
func TestClusterStatsAggregate(t *testing.T) {
	nodes := startNodes(t, 3)
	cl := newCluster(t, addrsOf(nodes), fastTiming())

	const n = 90
	for i := 0; i < n; i++ {
		if _, err := cl.PutSimple([]byte(fmt.Sprintf("agg-%03d", i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := cl.StatsAggregate()
	if err != nil {
		t.Fatal(err)
	}
	if stats["keys"] != n {
		t.Fatalf("aggregated keys = %d, want %d (sum across shards)", stats["keys"], n)
	}
	if stats["nodes_up"] != 3 {
		t.Fatalf("nodes_up = %d, want 3", stats["nodes_up"])
	}
	for i := 0; i < 3; i++ {
		k := fmt.Sprintf("node%d_state", i)
		v, present := stats[k]
		if !present {
			t.Fatalf("missing %s", k)
		}
		if v != int64(breaker.Closed) {
			t.Fatalf("%s = %d, want breaker.Closed", k, v)
		}
	}
	for _, k := range []string{"breaker_state"} {
		if _, present := stats[k]; !present {
			t.Fatalf("missing aggregate stat %s", k)
		}
	}
}

// TestClusterStatsAllNumeric pins the compat rule on the cluster surface
// itself: every value StatsAggregate returns must round-trip through
// ParseInt — by construction the map is int64, so the real assertion is
// that node_state and breaker_state arrive as numbers, never as state
// names, mirroring stats_compat_test.go server-side.
func TestClusterStatsAllNumeric(t *testing.T) {
	nodes := startNodes(t, 1)
	cl := newCluster(t, addrsOf(nodes), fastTiming())
	stats, err := cl.StatsAggregate()
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range stats {
		if _, err := strconv.ParseInt(strconv.FormatInt(v, 10), 10, 64); err != nil {
			t.Fatalf("stat %s=%d failed integer round-trip", k, v)
		}
	}
	if st, present := stats["node0_state"]; !present || st < 0 || st > 2 {
		t.Fatalf("node0_state = %d (present=%v), want numeric 0..2", st, present)
	}
	if bs, present := stats["breaker_state"]; !present || bs < 0 || bs > 2 {
		t.Fatalf("breaker_state = %d (present=%v), want numeric 0..2", bs, present)
	}
}
