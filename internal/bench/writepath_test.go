package bench

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/wire"
)

// BenchmarkServerPutRoundTrip measures one client round trip carrying a
// batch of 64 puts — the write-path counterpart of BenchmarkServerRoundTrip.
// This is the regime of the paper's Figures 10/11: put-heavy traffic where
// per-operation allocation and the version clock dominate once the network
// round trip is amortized over the batch.
func BenchmarkServerPutRoundTrip(b *testing.B) {
	const nkeys = 4096
	const batch = 64

	b.Run("put64", func(b *testing.B) {
		c := dialPipeline(b, nkeys, 1)
		reqs := make([]wire.Request, batch)
		for i := range reqs {
			reqs[i] = wire.Request{Op: wire.OpPut, Key: pipelineKey(i * 13 % nkeys),
				Puts: []wire.ColData{{Col: 0, Data: []byte("updated-column-data")}}}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			roundTrip(b, c, reqs)
		}
		reportPerRequest(b, batch)
	})
}

// BenchmarkPutSimple measures the store-level single-key put with logging
// disabled: tree descent + value construction + version assignment only.
func BenchmarkPutSimple(b *testing.B) {
	store, err := kvstore.Open(kvstore.Config{MaintainEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	sess := store.Session(0)
	defer sess.Close()
	const nkeys = 4096
	keys := make([][]byte, nkeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%016d", i))
		sess.PutSimple(keys[i], []byte("initial-column-data"))
	}
	data := []byte("updated-column-data")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.PutSimple(keys[i%nkeys], data)
	}
}

// BenchmarkPutSimpleParallel measures store-level puts from many goroutines,
// each with its own session/worker — the regime where the old global version
// clock serialized every writer on one cache line and the sharded clock
// (§5.1) does not.
func BenchmarkPutSimpleParallel(b *testing.B) {
	// Workers sizes the clock shards (and would size the logs, if enabled);
	// give every CPU its own shard as the paper gives every core its clock.
	store, err := kvstore.Open(kvstore.Config{MaintainEvery: -1, Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	const nkeys = 65536
	keys := make([][]byte, nkeys)
	load := store.Session(0)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%016d", i))
		load.PutSimple(keys[i], []byte("initial-column-data"))
	}
	load.Close()
	var nextWorker atomic.Int64
	data := []byte("updated-column-data")
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := int(nextWorker.Add(1) - 1)
		sess := store.Session(w)
		defer sess.Close()
		i := w * 31
		for pb.Next() {
			sess.PutSimple(keys[i%nkeys], data)
			i += 7
		}
	})
}
