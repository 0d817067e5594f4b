package cluster

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/kvstore"
	"repro/internal/server"
	"repro/internal/wire"
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
		store, err := kvstore.Open(kvstore.Config{MaintainEvery: -1})
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

func newCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// fastConfig keeps failure-detection latencies test-sized.
func fastConfig(addrs []string) Config {
	return Config{
		Addrs:         addrs,
		DialTimeout:   500 * time.Millisecond,
		OpTimeout:     time.Second,
		NodeFailures:  2,
		DownFor:       100 * time.Millisecond,
		ProbeInterval: 20 * time.Millisecond,
	}
}

// TestClusterSingleNodeEquivalence: a Cluster over a single node must
// produce responses identical to a plain client.Conn for every operation — same statuses, versions,
// columns, and pairs, for keyed ops, TTL ops, CAS conflicts, removes,
// ranges, and stats. The cluster layer must be invisible at N=1.
func TestClusterSingleNodeEquivalence(t *testing.T) {
	// Two identically-seeded single-node "clusters": one reached through a
	// plain Conn, one through Cluster.
	nodes := startNodes(t, 2)
	conn, err := client.DialConn(nodes[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cl := newCluster(t, fastConfig([]string{nodes[1].addr}))

	batches := [][]wire.Request{
		{
			{Op: wire.OpPut, Key: []byte("a"), Puts: []wire.ColData{{Col: 0, Data: []byte("1")}, {Col: 1, Data: []byte("x")}}},
			{Op: wire.OpPut, Key: []byte("b"), Puts: []wire.ColData{{Col: 0, Data: []byte("2")}}},
			{Op: wire.OpPut, Key: []byte("c"), Puts: []wire.ColData{{Col: 0, Data: []byte("3")}}},
		},
		{
			{Op: wire.OpGet, Key: []byte("a")},
			{Op: wire.OpGet, Key: []byte("b"), Cols: []int{0}},
			{Op: wire.OpGet, Key: []byte("nope")},
			{Op: wire.OpCas, Key: []byte("fresh"), ExpectVersion: 0, Puts: []wire.ColData{{Col: 0, Data: []byte("created")}}},
			{Op: wire.OpCas, Key: []byte("fresh"), ExpectVersion: 0, Puts: []wire.ColData{{Col: 0, Data: []byte("stale")}}},
			{Op: wire.OpPutTTL, Key: []byte("t"), Puts: []wire.ColData{{Col: 0, Data: []byte("ttl")}}, TTL: 3600},
			{Op: wire.OpTouch, Key: []byte("t"), TTL: 7200},
			{Op: wire.OpTouch, Key: []byte("absent"), TTL: 60},
			{Op: wire.OpRemove, Key: []byte("c")},
			{Op: wire.OpRemove, Key: []byte("never")},
			{Op: wire.OpGetRange, Key: nil, N: 10},
		},
	}
	for bi, reqs := range batches {
		r1, err := conn.Do(reqs)
		if err != nil {
			t.Fatalf("batch %d via conn: %v", bi, err)
		}
		r2, err := cl.Do(reqs)
		if err != nil {
			t.Fatalf("batch %d via cluster: %v", bi, err)
		}
		if !reflect.DeepEqual(normalize(r1), normalize(r2)) {
			t.Fatalf("batch %d diverged:\nconn:    %+v\ncluster: %+v", bi, r1, r2)
		}
	}

	// The wrapper surface must agree too, not just raw Do.
	v1, err1 := conn.PutSimple([]byte("w"), []byte("val"))
	v2, err2 := cl.PutSimple([]byte("w"), []byte("val"))
	if err1 != nil || err2 != nil || v1 != v2 {
		t.Fatalf("PutSimple diverged: (%d,%v) vs (%d,%v)", v1, err1, v2, err2)
	}
	g1, gv1, ok1, _ := conn.Get([]byte("w"), nil)
	g2, gv2, ok2, _ := cl.Get([]byte("w"), nil)
	if !reflect.DeepEqual(g1, g2) || gv1 != gv2 || ok1 != ok2 {
		t.Fatalf("Get diverged: (%q,%d,%v) vs (%q,%d,%v)", g1, gv1, ok1, g2, gv2, ok2)
	}
	c1, cok1, _ := conn.CasPut([]byte("w"), v1, []wire.ColData{{Col: 0, Data: []byte("v2")}})
	c2, cok2, _ := cl.CasPut([]byte("w"), v2, []wire.ColData{{Col: 0, Data: []byte("v2")}})
	if c1 != c2 || cok1 != cok2 {
		t.Fatalf("CasPut diverged: (%d,%v) vs (%d,%v)", c1, cok1, c2, cok2)
	}
	rm1, _ := conn.Remove([]byte("w"))
	rm2, _ := cl.Remove([]byte("w"))
	if rm1 != rm2 {
		t.Fatalf("Remove diverged: %v vs %v", rm1, rm2)
	}
}

// normalize maps empty and nil slices together so DeepEqual compares
// contents, not alloc-path artifacts (the cluster clones, Conn.Do clones —
// both own their memory, but empty-vs-nil may differ).
func normalize(in []wire.Response) []wire.Response {
	out := make([]wire.Response, len(in))
	for i, r := range in {
		if len(r.Cols) == 0 {
			r.Cols = nil
		}
		if len(r.Pairs) == 0 {
			r.Pairs = nil
		}
		for j := range r.Cols {
			if len(r.Cols[j]) == 0 {
				r.Cols[j] = nil
			}
		}
		out[i] = r
	}
	return out
}

// TestClusterBatchSplitMerge drives GetBatch/PutBatch across a 3-node
// cluster: writes must land on each key's ring owner (verified against the
// stores directly), reads must merge back into request order, and the
// split_batches counter must move.
func TestClusterBatchSplitMerge(t *testing.T) {
	nodes := startNodes(t, 3)
	cl := newCluster(t, fastConfig(addrsOf(nodes)))

	const n = 300
	keys := make([][]byte, n)
	puts := make([][]wire.ColData, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%04d", i))
		puts[i] = []wire.ColData{{Col: 0, Data: []byte(fmt.Sprintf("val-%04d", i))}}
	}
	vers, err := cl.PutBatch(keys, puts)
	if err != nil {
		t.Fatal(err)
	}
	if len(vers) != n {
		t.Fatalf("PutBatch returned %d versions for %d keys", len(vers), n)
	}
	for i, v := range vers {
		if v == 0 {
			t.Fatalf("key %d got version 0", i)
		}
	}

	// Each key must be resident on exactly its ring owner.
	owners := make([]int, n)
	for i, k := range keys {
		owners[i] = cl.Owner(k)
	}
	perNode := make([]int, 3)
	for i, k := range keys {
		for ni, node := range nodes {
			sess := node.store.Session(0)
			_, ok := sess.GetValue(k)
			sess.Close()
			if ok && ni != owners[i] {
				t.Fatalf("key %q resident on node %d, ring owner is %d", k, ni, owners[i])
			}
			if !ok && ni == owners[i] {
				t.Fatalf("key %q missing from its owner node %d", k, owners[i])
			}
			if ok {
				perNode[ni]++
			}
		}
	}
	for ni, c := range perNode {
		if c == 0 {
			t.Fatalf("node %d owns no keys of %d — ring distribution collapsed: %v", ni, n, perNode)
		}
	}

	// GetBatch must merge replies back into request order.
	resps, err := cl.GetBatch(keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		if r.Status != wire.StatusOK {
			t.Fatalf("key %d status %d", i, r.Status)
		}
		want := fmt.Sprintf("val-%04d", i)
		if string(r.Cols[0]) != want {
			t.Fatalf("key %d: got %q want %q — batch merge broke request order", i, r.Cols[0], want)
		}
		if r.Version != vers[i] {
			t.Fatalf("key %d: version %d, put acked %d", i, r.Version, vers[i])
		}
	}

	if st := cl.ClusterStats(); st.SplitBatches < 2 {
		t.Fatalf("split_batches = %d after two cross-shard batches", st.SplitBatches)
	}
}

// TestClusterStatsAggregate checks StatsAggregate sums numeric server
// metrics across nodes and reports per-node health numerically —
// node<i>_state follows breaker_state's all-numeric rule (the
// flush_last_error precedent: string-valued stats must never leak into a
// surface integer-parsing consumers read).
func TestClusterStatsAggregate(t *testing.T) {
	nodes := startNodes(t, 3)
	cl := newCluster(t, fastConfig(addrsOf(nodes)))

	const n = 90
	keys := make([][]byte, n)
	puts := make([][]wire.ColData, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("agg-%03d", i))
		puts[i] = []wire.ColData{{Col: 0, Data: []byte("x")}}
	}
	if _, err := cl.PutBatch(keys, puts); err != nil {
		t.Fatal(err)
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
		if v != int64(NodeUp) {
			t.Fatalf("%s = %d, want NodeUp", k, v)
		}
	}
	for _, k := range []string{"failovers", "hedges", "hedge_wins", "split_batches", "breaker_state"} {
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
	cl := newCluster(t, fastConfig(addrsOf(nodes)))
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
