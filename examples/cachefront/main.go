// Cachefront: Masstree as a memcached-class bounded cache (§1, §6 compare
// against memcached; this is the store actually serving that role). The
// store runs in cache mode — Config.MaxBytes bounds the accounted live
// bytes — while an S3-FIFO-inspired policy evicts cold keys from the
// maintenance loop and TTLs expire stale entries, so a hot zipfian working
// set far larger than memory serves indefinitely at a bounded footprint.
//
//	go run ./examples/cachefront
//
// The same mode is available over the network: `masstree-server
// -max-bytes 67108864` plus client.Conn.PutTTL/Touch (protocol v2), with
// `masstree-client stats` showing bytes_live/evictions/ghost_hits.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/kvstore"
	"repro/internal/value"
	"repro/internal/workload"
)

func main() {
	const (
		maxBytes = 32 << 20 // 32 MiB budget
		valSize  = 2048
		nkeys    = 50_000 // ~100 MiB footprint: 3x over budget
		ops      = 150_000
	)
	store, err := kvstore.Open(kvstore.Config{MaxBytes: maxBytes})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	sess := store.Session(0)

	// A cache-aside loop: get; on miss, "recompute" and fill with a TTL so
	// stale entries age out even if they stay hot.
	val := make([]byte, valSize)
	ttl := uint64(time.Now().Add(time.Hour).UnixNano())
	zipf := workload.ZipfKeys(7, nkeys)
	hits, misses := 0, 0
	for i := 0; i < ops; i++ {
		k := zipf.Next()
		if _, ok := sess.GetValue(k); ok {
			hits++
			continue
		}
		misses++
		sess.PutTTL(k, []value.ColPut{{Col: 0, Data: val}}, ttl)
	}

	st := store.CacheStats()
	fmt.Printf("served %d ops over a %.0f MiB working set in a %d MiB cache\n",
		ops, float64(nkeys*valSize)/(1<<20), maxBytes>>20)
	fmt.Printf("  hit rate     %.1f%% (%d hits / %d misses)\n",
		100*float64(hits)/float64(hits+misses), hits, misses)
	fmt.Printf("  bytes_live   %d (budget %d — never exceeded by more than one eviction batch)\n",
		st.BytesLive, int64(maxBytes))
	fmt.Printf("  evictions    %d (S3-FIFO: cold keys drop, the zipfian head stays)\n", st.Evictions)
	fmt.Printf("  ghost_hits   %d (recurring keys re-admitted straight to the main queue)\n", st.GhostHits)
	fmt.Printf("  keys resident %d of %d\n", store.Len(), nkeys)

	// TTLs expire without explicit deletes: a short-lived entry vanishes
	// from reads the moment its deadline passes (lazy expiry), and the
	// background sweep reclaims it for good.
	sess.PutTTL([]byte("session:42"), []value.ColPut{{Col: 0, Data: []byte("logged-in")}}, uint64(time.Now().Add(50*time.Millisecond).UnixNano()))
	if _, ok := sess.GetValue([]byte("session:42")); !ok {
		log.Fatal("fresh TTL key should be visible")
	}
	for deadline := time.Now().Add(5 * time.Second); store.CacheStats().Expirations < 1; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			log.Fatal("the sweep never reclaimed the expired TTL key")
		}
	}
	if _, ok := sess.GetValue([]byte("session:42")); ok {
		log.Fatal("expired TTL key should read as absent")
	}
	fmt.Println("session:42 expired and was swept; expirations =", store.CacheStats().Expirations)
}
