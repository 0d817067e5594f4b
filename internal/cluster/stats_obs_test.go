package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/client"
	"repro/internal/obs"
)

// TestStatsAggregatePartialOnNodeDown pins the partial-aggregate contract:
// when a node is Down mid-aggregate, its metrics are *absent* from the sums
// and the aggregate says so (stats_partial, nodes_up vs nodes_total) —
// never summed in as zero, which would let a consumer read "keys" during an
// outage and conclude the dark shard holds nothing.
func TestStatsAggregatePartialOnNodeDown(t *testing.T) {
	nodes := startNodes(t, 2)
	cfg := fastConfig(addrsOf(nodes))
	cfg.DownFor = time.Hour // keep probes away once node1 is down
	cl := newCluster(t, cfg)

	// Seed each store directly so per-node key counts are known regardless
	// of ring placement: node0 holds 5 keys, node1 holds 3.
	for n, count := range []int{5, 3} {
		sess := nodes[n].store.Session(0)
		for i := 0; i < count; i++ {
			sess.PutSimple([]byte(fmt.Sprintf("n%d-key-%d", n, i)), []byte("v"))
		}
		sess.Close()
	}

	full, err := cl.StatsAggregate()
	if err != nil {
		t.Fatal(err)
	}
	if full["keys"] != 8 {
		t.Fatalf("full aggregate keys=%d, want 8", full["keys"])
	}
	if full["stats_partial"] != 0 || full["nodes_up"] != 2 || full["nodes_total"] != 2 {
		t.Fatalf("full aggregate mislabeled: partial=%d up=%d total=%d",
			full["stats_partial"], full["nodes_up"], full["nodes_total"])
	}

	// Take node1 down: kill its server, and let the aggregate's own failed
	// stats requests trip node1's breaker.
	nodes[1].srv.Close()
	deadline := time.Now().Add(10 * time.Second)
	for cl.ClusterStats().Nodes[1].State == breaker.Closed {
		if _, err := cl.StatsAggregate(); err != nil {
			t.Fatalf("aggregate with node0 up failed: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("node1 never tripped")
		}
	}

	partial, err := cl.StatsAggregate()
	if err != nil {
		t.Fatalf("aggregate with one node up failed: %v", err)
	}
	if partial["keys"] != 5 {
		t.Fatalf("partial aggregate keys=%d, want node0's 5 (node1 absent, not zero-summed)", partial["keys"])
	}
	if partial["stats_partial"] != 1 {
		t.Fatalf("stats_partial=%d with a node down, want 1", partial["stats_partial"])
	}
	if partial["nodes_up"] != 1 || partial["nodes_total"] != 2 {
		t.Fatalf("nodes_up=%d nodes_total=%d, want 1/2", partial["nodes_up"], partial["nodes_total"])
	}
	if partial["node1_state"] != int64(breaker.Open) {
		t.Fatalf("node1_state=%d, want %d (down)", partial["node1_state"], breaker.Open)
	}
	// The trip is on the cluster's flight recorder, in node1's ring.
	tripped := false
	for _, ev := range cl.Recorder().Events() {
		tripped = tripped || (ev.Kind == obs.EvNodeDown && ev.Arg1 == 1)
	}
	if !tripped {
		t.Fatalf("no node_down event for node1:\n%s", cl.Recorder().DumpString())
	}
}

// TestStatsAggregateRecomputesQuantiles pins the histogram merge rule: the
// aggregate's lat_* quantiles must equal the quantiles of the *merged*
// distribution (buckets summed across nodes, then re-derived), byte-for-
// byte what RecomputeQuantiles produces from the per-node stats — never a
// sum or average of per-node quantiles.
func TestStatsAggregateRecomputesQuantiles(t *testing.T) {
	nodes := startNodes(t, 2)
	cl := newCluster(t, fastConfig(addrsOf(nodes)))

	// Drive timed ops through the cluster until both nodes have recorded
	// get latencies (the ring decides placement, so spray keys).
	for i := 0; i < 64; i++ {
		key := []byte(fmt.Sprintf("q-key-%03d", i))
		if _, err := cl.PutSimple(key, []byte("quantile-value")); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := cl.Get(key, nil); err != nil {
			t.Fatal(err)
		}
	}

	// Quiesced: rebuild the expected merged histogram by summing the two
	// nodes' numeric stats maps and recomputing, exactly as an external
	// aggregator would.
	want := map[string]int64{}
	perNodeCounts := make([]int64, 2)
	for i, n := range nodes {
		conn, err := client.DialConn(n.addr)
		if err != nil {
			t.Fatal(err)
		}
		m, err := conn.Stats()
		conn.Close()
		if err != nil {
			t.Fatal(err)
		}
		perNodeCounts[i] = m["lat_get_count"]
		if perNodeCounts[i] == 0 {
			t.Fatalf("node %d recorded no gets; ring never routed there", i)
		}
		for k, v := range m {
			want[k] += v
		}
	}
	obs.RecomputeQuantiles(want)

	got, err := cl.StatsAggregate()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"lat_get_count", "lat_get_sum",
		"lat_get_p50", "lat_get_p90", "lat_get_p99", "lat_get_p999"} {
		if got[k] != want[k] {
			t.Errorf("%s=%d, merged-distribution value is %d", k, got[k], want[k])
		}
	}
	if got["lat_get_count"] != perNodeCounts[0]+perNodeCounts[1] {
		t.Errorf("lat_get_count=%d, want %d+%d", got["lat_get_count"], perNodeCounts[0], perNodeCounts[1])
	}
	// Client-observed RPC latency rides along, per node and merged.
	if got["node0_rpc_count"] == 0 || got["node1_rpc_count"] == 0 {
		t.Errorf("per-node rpc counts missing: n0=%d n1=%d", got["node0_rpc_count"], got["node1_rpc_count"])
	}
	if got["lat_rpc_count"] != got["node0_rpc_count"]+got["node1_rpc_count"] {
		t.Errorf("merged rpc count %d != per-node parts %d+%d",
			got["lat_rpc_count"], got["node0_rpc_count"], got["node1_rpc_count"])
	}
	if got["lat_rpc_p50"] == 0 {
		t.Errorf("lat_rpc_p50=0 after %d RPCs", got["lat_rpc_count"])
	}
}
