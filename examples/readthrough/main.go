// Readthrough: the store as the fast tier of a two-level hierarchy. A
// backend (here the file backend, wrapped in the timeout/retry/breaker
// decorator stack) is the source of truth; Session.GetOrLoad serves hits
// from the tree and funnels misses through the loader, which coalesces a
// thundering herd of concurrent misses into exactly one backend load per
// key. Evictions spill to the backend through the async write-behind queue,
// and when the backend goes down the store degrades instead of hanging:
// expired-but-resident values are served marked stale (stale-if-error),
// absent keys fail fast once the circuit breaker opens.
//
//	go run ./examples/readthrough
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/kvstore"
	"repro/internal/value"
)

func main() {
	dir, err := os.MkdirTemp("", "readthrough-backend-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// The mock backend exposes fault injection; the decorator stack turns
	// repeated failures into an open circuit. A file backend (or anything
	// else implementing backend.Backend) wires up identically.
	mock := backend.NewMock(0)
	be := backend.Wrap(mock, backend.WrapConfig{
		Timeout:         time.Second,
		Retries:         1,
		BreakerFailures: 3,
		BreakerOpenFor:  200 * time.Millisecond,
	})

	store, err := kvstore.Open(kvstore.Config{
		Backend:     be,
		NegativeTTL: time.Second,
		MaxStale:    time.Minute,
		WriteBehind: 256,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	sess := store.Session(0)

	// --- 1. Read-through: the backend is the source of truth. -------------
	mock.Seed("user:42", backend.EncodeCols([][]byte{[]byte("alice")}))
	v, stale, err := sess.GetOrLoad(context.Background(), []byte("user:42"))
	fmt.Printf("miss -> backend load: value=%q stale=%v err=%v\n", v.Col(0), stale, err)
	v, _, _ = sess.GetOrLoad(context.Background(), []byte("user:42"))
	fmt.Printf("second read is a tree hit: value=%q (backend loads so far: %d)\n",
		v.Col(0), mock.Loads())

	// --- 2. Herd coalescing: 256 concurrent misses, one load. -------------
	mock.Seed("hot", backend.EncodeCols([][]byte{[]byte("popular")}))
	release := mock.Hang() // park the load so the herd actually piles up
	var wg sync.WaitGroup
	for i := 0; i < 256; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := store.Session(0)
			s.GetOrLoad(context.Background(), []byte("hot"))
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the herd park on the flight
	release()
	wg.Wait()
	st := store.LoaderStats()
	fmt.Printf("herd of 256: backend loads for %q = %d, coalesced waiters = %d\n",
		"hot", mock.LoadsFor("hot"), st.HerdCoalesced)

	// --- 3. Outage: fail fast + stale-if-error. ---------------------------
	mock.SetError(errors.New("backend down"))
	for i := 0; i < 4; i++ { // trip the breaker (3 consecutive failures)
		sess.GetOrLoad(context.Background(), []byte("absent"))
	}
	start := time.Now()
	_, _, err = sess.GetOrLoad(context.Background(), []byte("absent2"))
	fmt.Printf("breaker open: miss fails in %s with %v\n",
		time.Since(start).Round(time.Microsecond), err)
	st = store.LoaderStats()
	fmt.Printf("breaker state=%d opens=%d; resident keys still serve: ", st.Backend.BreakerState, st.Backend.BreakerOpens)
	v, _, _ = sess.GetOrLoad(context.Background(), []byte("user:42"))
	fmt.Printf("user:42=%q\n", v.Col(0))

	// --- 4. Recovery: half-open probe heals without a restart. ------------
	mock.SetError(nil)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, err := sess.GetOrLoad(context.Background(), []byte("user:43")); err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	st = store.LoaderStats()
	fmt.Printf("backend healed: breaker state=%d, loads=%d, load_errors=%d\n",
		st.Backend.BreakerState, st.Loads, st.LoadErrors)

	// --- 5. Write-behind: store-side changes propagate to the backend. ----
	// Cache-pressure evictions spill values through the same queue; a Remove
	// enqueues a tombstone, so the backend cannot resurrect a deleted key.
	sess.Put([]byte("user:42"), []value.ColPut{{Col: 0, Data: []byte("alice-v2")}})
	sess.Remove([]byte("user:42"))
	store.DrainWriteBehind(time.Second) // queue also drains continuously and at Close
	_, inBackend := mock.Get("user:42")
	fmt.Printf("after Remove + drain: backend still has user:42? %v (queue depth %d, drops %d)\n",
		inBackend, store.LoaderStats().WriteBehindDepth, store.LoaderStats().WriteBehindDrops)
}
