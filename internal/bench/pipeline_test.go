package bench

import (
	"fmt"
	"testing"

	"repro/internal/client"
	"repro/internal/kvstore"
	"repro/internal/server"
	"repro/internal/wire"
)

// dialPipeline starts an in-memory store and TCP server preloaded with nkeys
// single-column values and returns a Conn to it that keeps up to window
// batches in flight.
func dialPipeline(b *testing.B, nkeys, window int) *client.Conn {
	b.Helper()
	store, err := kvstore.Open(kvstore.Config{MaintainEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	srv := server.New(store, 2)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		srv.Close()
		store.Close()
	})
	sess := store.Session(0)
	for i := 0; i < nkeys; i++ {
		sess.PutSimple(pipelineKey(i), []byte("value-of-some-plausible-length"))
	}
	c, err := client.DialConn(srv.Addr().String(), client.WithWindow(window))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

func pipelineKey(i int) []byte {
	return []byte(fmt.Sprintf("key%016d", i))
}

// reportPerRequest adds a derived requests/s metric so the snapshot reads in
// the paper's units (the batch amortizes one round trip over `batch` ops).
func reportPerRequest(b *testing.B, batch int) {
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkPipelinedRoundTrip runs the pipelined Conn at several window
// depths on the same 64-get batch. Window 1 is the one-frame-in-flight
// baseline: the client idles during execution, the server idles during the
// client's turnaround. Deeper windows overlap the client's encode and
// decode, the server's read-execute-answer loop, and the wire, which is where
// the paper's "batched query support is vital" turns into sustained
// throughput rather than per-round-trip latency.
func BenchmarkPipelinedRoundTrip(b *testing.B) {
	const nkeys = 4096
	const batch = 64
	mkReqs := func() []wire.Request {
		reqs := make([]wire.Request, batch)
		for i := range reqs {
			reqs[i] = wire.Request{Op: wire.OpGet, Key: pipelineKey(i * 7 % nkeys)}
		}
		return reqs
	}

	for _, window := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("conn-window%d", window), func(b *testing.B) {
			c := dialPipeline(b, nkeys, window)
			reqs := mkReqs()
			wait := func(p *client.Pending) {
				resps, err := p.Wait()
				if err != nil {
					b.Fatal(err)
				}
				if len(resps) != batch || resps[0].Status != wire.StatusOK {
					b.Fatalf("bad responses: %d", len(resps))
				}
				p.Release()
			}
			// Keep `window` batches in flight: wait for the oldest before
			// issuing the next once the ring is full.
			ring := make([]*client.Pending, 0, window)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(ring) == window {
					wait(ring[0])
					ring = append(ring[:0], ring[1:]...)
				}
				ring = append(ring, c.Go(reqs))
			}
			for _, p := range ring {
				wait(p)
			}
			reportPerRequest(b, batch)
		})
	}
}
