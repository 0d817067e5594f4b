package cluster

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/breaker"
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

// TestClusterSingleNodeEquivalence: a Cluster over a single node must
// produce responses identical to a plain client.Conn for every operation —
// same statuses, versions, columns, and pairs, for keyed ops, TTL ops, CAS
// conflicts, removes, and ranges — through the executor the typed calls
// share and through every typed client.KV call. The cluster layer must be
// invisible at N=1.
func TestClusterSingleNodeEquivalence(t *testing.T) {
	// Two identically-seeded single-node "clusters": one reached through a
	// plain Conn, one through Cluster.
	nodes := startNodes(t, 2)
	conn, err := client.DialConn(nodes[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cl := newCluster(t, []string{nodes[1].addr}, fastTiming())

	reqs := []wire.Request{
		{Op: wire.OpPut, Key: []byte("a"), Puts: []wire.ColData{{Col: 0, Data: []byte("1")}, {Col: 1, Data: []byte("x")}}},
		{Op: wire.OpPut, Key: []byte("b"), Puts: []wire.ColData{{Col: 0, Data: []byte("2")}}},
		{Op: wire.OpPut, Key: []byte("c"), Puts: []wire.ColData{{Col: 0, Data: []byte("3")}}},
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
	}
	for i, req := range reqs {
		r1, err := conn.Do([]wire.Request{req})
		if err != nil {
			t.Fatalf("request %d via conn: %v", i, err)
		}
		r2, err := cl.one(req)
		if err != nil {
			t.Fatalf("request %d via cluster: %v", i, err)
		}
		if !reflect.DeepEqual(normalize(r1), normalize([]wire.Response{r2})) {
			t.Fatalf("request %d diverged:\nconn:    %+v\ncluster: %+v", i, r1[0], r2)
		}
	}

	// The wrapper surface must agree too, not just the executor.
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

	cols := []wire.ColData{{Col: 0, Data: []byte("p0")}, {Col: 2, Data: []byte("p2")}}
	p1, err1 := conn.Put([]byte("p"), cols)
	p2, err2 := cl.Put([]byte("p"), cols)
	if err1 != nil || err2 != nil || p1 != p2 {
		t.Fatalf("Put diverged: (%d,%v) vs (%d,%v)", p1, err1, p2, err2)
	}
	t1, err1 := conn.PutTTL([]byte("pt"), cols, 3600)
	t2, err2 := cl.PutTTL([]byte("pt"), cols, 3600)
	if err1 != nil || err2 != nil || t1 != t2 {
		t.Fatalf("PutTTL diverged: (%d,%v) vs (%d,%v)", t1, err1, t2, err2)
	}
	s1, err1 := conn.PutSimpleTTL([]byte("pst"), []byte("v"), 3600)
	s2, err2 := cl.PutSimpleTTL([]byte("pst"), []byte("v"), 3600)
	if err1 != nil || err2 != nil || s1 != s2 {
		t.Fatalf("PutSimpleTTL diverged: (%d,%v) vs (%d,%v)", s1, err1, s2, err2)
	}
	for _, k := range []string{"pst", "never-written"} {
		tv1, tok1, err1 := conn.Touch([]byte(k), 60)
		tv2, tok2, err2 := cl.Touch([]byte(k), 60)
		if err1 != nil || err2 != nil || tv1 != tv2 || tok1 != tok2 || tok1 != (k == "pst") {
			t.Fatalf("Touch %q diverged: (%d,%v,%v) vs (%d,%v,%v)", k, tv1, tok1, err1, tv2, tok2, err2)
		}
	}
	// Neither server has a backend tier: a read-through miss is an error
	// on both faces.
	if _, _, _, _, err := conn.GetOrLoad([]byte("never-written"), nil); err == nil {
		t.Fatal("Conn.GetOrLoad without a backend: no error")
	}
	if _, _, _, _, err := cl.GetOrLoad([]byte("never-written"), nil); err == nil {
		t.Fatal("Cluster.GetOrLoad without a backend: no error")
	}
	// From "p" on: p, pst, pt and the batches' t.
	r1, err1 := conn.GetRange([]byte("p"), 10, nil)
	r2, err2 := cl.GetRange([]byte("p"), 10, nil)
	if err1 != nil || err2 != nil || len(r1) != 4 || !reflect.DeepEqual(r1, r2) {
		t.Fatalf("GetRange diverged: (%q,%v) vs (%q,%v)", r1, err1, r2, err2)
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

// TestClusterRoutesToOwners writes keys one at a time across a 3-node
// cluster: each write must land on its key's ring owner (verified against
// the stores directly), every node must own some keys, each key must read
// back its value and version, and a single GetRange is refused.
func TestClusterRoutesToOwners(t *testing.T) {
	nodes := startNodes(t, 3)
	cl := newCluster(t, addrsOf(nodes), fastTiming())

	const n = 300
	keys := make([][]byte, n)
	vers := make([]uint64, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%04d", i))
		v, err := cl.PutSimple(keys[i], []byte(fmt.Sprintf("val-%04d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if v == 0 {
			t.Fatalf("key %d got version 0", i)
		}
		vers[i] = v
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

	for i, k := range keys {
		cols, ver, ok, err := cl.Get(k, nil)
		if err != nil || !ok {
			t.Fatalf("key %d: ok=%v err=%v", i, ok, err)
		}
		if want := fmt.Sprintf("val-%04d", i); string(cols[0]) != want {
			t.Fatalf("key %d: got %q want %q", i, cols[0], want)
		}
		if ver != vers[i] {
			t.Fatalf("key %d: version %d, put acked %d", i, ver, vers[i])
		}
	}

	// A single range spans shards: on three nodes it is refused rather than
	// answered from one shard's pairs.
	if pairs, err := cl.GetRange(keys[0], 10, nil); err == nil {
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
