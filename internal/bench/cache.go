package bench

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/kvstore"
	"repro/internal/value"
	"repro/internal/workload"
)

// cacheValSize is the experiment's value payload: kilobyte-class objects,
// the memcached-style regime the cache mode targets.
const cacheValSize = 1024

// Cache measures bounded-memory serving under skew: a zipfian hot-key
// read-mostly workload with TTL refreshes, run twice over the same trace
// parameters — once unbounded (the store only grows) and once in cache mode
// with a byte budget a fraction of the working set. The cache-mode row must
// hold bytes_live at the bound (S3-FIFO evictions + TTL sweeps from the
// maintenance loop) while keeping the hot head of the distribution
// resident, which is what the hit rate reports.
func Cache(sc Scale) *Table {
	sc = sc.withDefaults()
	footprint := int64(sc.Keys) * cacheValSize
	budget := footprint / 4
	if budget > 64<<20 {
		budget = 64 << 20 // the acceptance configuration
	}
	if budget < 1<<18 {
		budget = 1 << 18
	}
	t := &Table{
		ID: "cache",
		Title: fmt.Sprintf("cache mode: zipfian hot-key TTL workload, %d keys x %dB (%.0f MiB footprint)",
			sc.Keys, cacheValSize, float64(footprint)/(1<<20)),
		Headers: []string{"config", "ops/s", "hit_rate", "bytes_peak", "evictions", "ghost_hits", "expirations"},
	}
	for _, mode := range []struct {
		name     string
		maxBytes int64
	}{
		{"unbounded", 0},
		{fmt.Sprintf("cache %dMiB", budget>>20), budget},
	} {
		row := runCacheWorkload(sc, mode.maxBytes)
		t.Rows = append(t.Rows, append([]string{mode.name}, row...))
	}
	t.Notes = append(t.Notes,
		"mix: 90% get (miss fills with a plain put), 10% put with a 1h TTL; zipfian theta 0.99",
		"bytes_peak is sampled bytes_live; the cache row must stay within one eviction batch of the budget")
	return t
}

func runCacheWorkload(sc Scale, maxBytes int64) []string {
	st, err := kvstore.Open(kvstore.Config{
		Workers:       sc.Workers,
		MaintainEvery: time.Millisecond,
		MaxBytes:      int(maxBytes),
	})
	if err != nil {
		panic(err)
	}
	defer st.Close()

	var hits, misses, peak atomic.Int64
	val := make([]byte, cacheValSize)
	perWorker := sc.Ops / sc.Workers
	if perWorker == 0 {
		perWorker = 1
	}
	future := uint64(time.Now().Add(time.Hour).UnixNano())
	gens := make([]workload.KeyGen, sc.Workers)
	for w := range gens {
		gens[w] = workload.ZipfKeys(int64(31+w), uint64(sc.Keys))
	}
	sessions := openSessions(st, sc.Workers)
	defer closeSessions(sessions)
	ops := measure(sc.Workers, perWorker, func(w, i int) {
		sess := sessions[w]
		k := gens[w].Next()
		if i%10 == 0 {
			sess.PutTTL(k, []value.ColPut{{Col: 0, Data: val}}, future)
		} else if _, ok := sess.GetValue(k); ok {
			hits.Add(1)
		} else {
			misses.Add(1)
			sess.PutSimple(k, val)
		}
		if i%256 == 0 {
			if live := st.CacheStats().BytesLive; live > peak.Load() {
				peak.Store(live)
			}
		}
	})
	cs := st.CacheStats()
	if live := cs.BytesLive; live > peak.Load() {
		peak.Store(live)
	}
	total := hits.Load() + misses.Load()
	if total == 0 {
		total = 1
	}
	return []string{
		fmt.Sprintf("%.0f", ops),
		fmt.Sprintf("%.4f", float64(hits.Load())/float64(total)),
		fmt.Sprintf("%d", peak.Load()),
		fmt.Sprintf("%d", cs.Evictions),
		fmt.Sprintf("%d", cs.GhostHits),
		fmt.Sprintf("%d", cs.Expirations),
	}
}
