//go:build slowtest

package cluster

import (
	"testing"
	"time"
)

// TestPartitionTortureExhaustive runs every fault in the menu against every
// node in turn — blackhole partition, connection-refusing dead process,
// sub-timeout latency, orphaned frozen flows, mid-stream byte truncation,
// and a full process kill-and-rebirth — under continuous load, with hedged
// reads armed so the hedge path is tortured too. The same invariants as the
// base schedule are checked throughout and at the end: no acked write lost,
// no wrong-shard reply, bounded goroutines, every victim rejoining without
// a client restart.
func TestPartitionTortureExhaustive(t *testing.T) {
	faults := []struct {
		name  string
		apply func(tor *torture, v int)
		heal  func(tor *torture, v int)
	}{
		{"blackhole",
			func(tor *torture, v int) { tor.proxies[v].Blackhole() },
			func(tor *torture, v int) { tor.proxies[v].Heal() }},
		{"refuse",
			func(tor *torture, v int) { tor.proxies[v].Refuse() },
			func(tor *torture, v int) { tor.proxies[v].Heal() }},
		{"latency",
			func(tor *torture, v int) { tor.proxies[v].SetLatency(30 * time.Millisecond) },
			func(tor *torture, v int) { tor.proxies[v].Heal() }},
		{"freeze",
			func(tor *torture, v int) { tor.proxies[v].FreezeConns() },
			func(tor *torture, v int) { tor.proxies[v].Heal() }},
		{"truncate",
			func(tor *torture, v int) { tor.proxies[v].TruncateAfter(4096) },
			func(tor *torture, v int) { tor.proxies[v].Heal() }},
		{"kill-rebirth",
			func(tor *torture, v int) { tor.rebirth(v) },
			func(tor *torture, v int) {}},
	}

	tor := newTorture(t, 6, 5, func(c *Config) { c.HedgeAfter = 60 * time.Millisecond })
	tor.start()
	tor.run(200 * time.Millisecond) // clean baseline

	for v := range tor.nodes {
		for _, f := range faults {
			t.Logf("fault %s on node %d", f.name, v)
			f.apply(tor, v)
			tor.run(400 * time.Millisecond)
			f.heal(tor, v)
			tor.waitUp(v)
			tor.run(150 * time.Millisecond)
		}
	}

	tor.finish()

	st := tor.cl.ClusterStats()
	for v, ns := range st.Nodes {
		if ns.Trips == 0 {
			t.Errorf("node %d survived the whole schedule without tripping — faults not biting", v)
		}
	}
	t.Logf("exhaustive torture: trips=[%d %d %d] hedges=%d hedge_wins=%d peak_goroutines=%d (baseline %d)",
		st.Nodes[0].Trips, st.Nodes[1].Trips, st.Nodes[2].Trips,
		st.Hedges, st.HedgeWins, tor.maxG.Load(), tor.baseline)
}
