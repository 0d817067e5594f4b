package cluster

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/breaker"
	"repro/internal/obs"
	"repro/internal/wire"
)

// clusterCounters are the cluster-side health counters, all monotonic.
type clusterCounters struct {
	hedges    atomic.Uint64 // hedged second attempts launched
	hedgeWins atomic.Uint64 // hedges whose answer arrived first
}

// NodeStats is one node's health as the cluster sees it.
type NodeStats struct {
	Addr  string
	State breaker.State // Closed (up), Open (down), HalfOpen (probing)
	Trips uint64        // transitions into Open, failed probes included
	// DownFor is how long the node has been out of Closed (0 when Closed)
	// — the operator's "how stale is this shard" number.
	DownFor time.Duration
}

// Stats is the cluster's aggregate client-side health snapshot.
type Stats struct {
	Nodes     []NodeStats
	Hedges    uint64
	HedgeWins uint64
}

// ClusterStats snapshots per-node health and the cluster counters. Purely
// local: no network I/O.
func (c *Cluster) ClusterStats() Stats {
	s := Stats{
		Hedges:    c.stats.hedges.Load(),
		HedgeWins: c.stats.hedgeWins.Load(),
	}
	for _, n := range c.nodes {
		ns := NodeStats{Addr: n.addr, State: n.br.State(), Trips: n.br.Opens()}
		if ns.State != breaker.Closed {
			ns.DownFor = time.Since(n.br.OpenedAt())
		}
		s.Nodes = append(s.Nodes, ns)
	}
	return s
}

// StatsAggregate fans an OpStats out to every reachable node and returns
// the numeric server metrics summed across nodes, plus the cluster-side
// view: node<i>_state (numeric, 0/1/2 — same all-numeric rule as
// breaker_state, so integer-parsing consumers never break; see
// stats_compat_test.go's precedent), nodes_up, nodes_total, stats_partial,
// hedges, hedge_wins, and the client-observed per-node RPC latency
// (node<i>_rpc_count/_p50/_p99 plus merged lat_rpc_* keys). Down nodes
// contribute only their state; the call fails only if every node is
// unreachable.
//
// Two aggregation rules matter here. First, histogram-derived keys cannot
// be summed like counters — adding two p99s is meaningless — so after the
// summing pass the quantile and count keys are rebuilt from the summed
// lat_*_b<i> bucket keys (obs.RecomputeQuantiles): the aggregate p99 is the
// p99 of the merged distribution, not an average of per-node quantiles.
// Second, a partial aggregate is *labeled*, never silently passed off as a
// cluster total: stats_partial reports how many nodes did not contribute
// (down, or failing mid-aggregate), so a consumer reading "keys" while a
// shard is dark knows the number undercounts rather than concluding the
// shard holds zero keys.
func (c *Cluster) StatsAggregate() (map[string]int64, error) {
	out := map[string]int64{}
	reachable := 0
	var lastErr error
	for i, n := range c.nodes {
		state := n.br.State()
		out[fmt.Sprintf("node%d_state", i)] = int64(state)
		if state != breaker.Closed {
			continue
		}
		resp, err := c.exec(n, wire.Request{Op: wire.OpStats})
		if err != nil {
			lastErr = err
			continue
		}
		reachable++
		for _, pair := range resp.Pairs {
			if v, err := strconv.ParseInt(string(pair.Cols[0]), 10, 64); err == nil {
				out[string(pair.Key)] += v
			}
			// Non-numeric metrics (flush_last_error) are per-node strings;
			// summing is meaningless, so the aggregate view skips them —
			// the same "numeric only" contract client.Conn.Stats applies.
		}
	}
	if reachable == 0 {
		if lastErr == nil {
			lastErr = fmt.Errorf("%w (all nodes)", ErrNodeDown)
		}
		return nil, lastErr
	}
	obs.RecomputeQuantiles(out)
	out["nodes_up"] = int64(reachable)
	out["nodes_total"] = int64(len(c.nodes))
	out["stats_partial"] = int64(len(c.nodes) - reachable)
	out["hedges"] = int64(c.stats.hedges.Load())
	out["hedge_wins"] = int64(c.stats.hedgeWins.Load())
	// Client-observed RPC latency: merged keys under the lat_ prefix (the
	// same shape as server histograms) and per-node quantiles from the
	// node-sharded histogram.
	for _, st := range obs.AppendStats(nil, c.rpcHist.Snapshot()) {
		out[st.Name] = st.Value
	}
	for i := range c.nodes {
		ns := c.rpcHist.ShardSnapshot(i)
		out[fmt.Sprintf("node%d_rpc_count", i)] = int64(ns.Count())
		out[fmt.Sprintf("node%d_rpc_p50", i)] = int64(ns.Quantile(0.50))
		out[fmt.Sprintf("node%d_rpc_p99", i)] = int64(ns.Quantile(0.99))
	}
	return out, nil
}
