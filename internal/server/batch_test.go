package server

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/client"
	"repro/internal/wire"
)

// TestBatchedGetsMatchPerKeyGets drives the batch-aware execution path
// (all-get segments served through Session.PointBatchInto) under concurrent writes
// and checks that every batched result is a value some writer actually
// stored for that key; once writers stop, batched and per-key gets must
// agree exactly. It also asserts, via the batched_gets stat, that the
// batched path really served the gets.
func TestBatchedGetsMatchPerKeyGets(t *testing.T) {
	srv, addr := startServer(t, "")
	const nkeys = 128
	const batch = 64

	key := func(i int) []byte { return []byte(fmt.Sprintf("batch-key-%04d", i)) }
	// Values are self-describing — "i#seq" — so a reader can verify any
	// observed value was genuinely written for that key.
	val := func(i, seq int) []byte { return []byte(fmt.Sprintf("%04d#%08d", i, seq)) }

	seed := dialConn(t, addr)
	for i := 0; i < nkeys; i++ {
		if _, err := seed.PutSimple(key(i), val(i, 0)); err != nil {
			t.Fatal(err)
		}
	}

	// Writers churn every key over their own connections.
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wc := dialConn(t, addr)
		wg.Add(1)
		go func(wc *client.Conn, w int) {
			defer wg.Done()
			for seq := 1; !stop.Load(); seq++ {
				i := (seq*7 + w*13) % nkeys
				if _, err := wc.PutSimple(key(i), val(i, seq)); err != nil {
					return
				}
			}
		}(wc, w)
	}

	reader := dialConn(t, addr)
	reqs := make([]wire.Request, batch)
	for round := 0; round < 50; round++ {
		for j := range reqs {
			reqs[j] = wire.Request{Op: wire.OpGet, Key: key((round*batch + j*3) % nkeys)}
		}
		resps, err := reader.Do(reqs)
		if err != nil {
			t.Fatal(err)
		}
		for j, r := range resps {
			if r.Status != wire.StatusOK || len(r.Cols) != 1 {
				t.Fatalf("round %d req %d: status %d cols %d", round, j, r.Status, len(r.Cols))
			}
			if !bytes.HasPrefix(r.Cols[0], reqs[j].Key[len("batch-key-"):]) {
				t.Fatalf("round %d: key %q returned foreign value %q", round, reqs[j].Key, r.Cols[0])
			}
		}
	}

	stop.Store(true)
	wg.Wait()

	// Quiescent: batched results must equal per-key gets exactly. Per-key
	// gets go out one request per message, below the batching threshold.
	for j := range reqs {
		reqs[j] = wire.Request{Op: wire.OpGet, Key: key(j * 2 % nkeys)}
	}
	batched, err := reader.Do(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for j := range reqs {
		single, _, ok, err := seed.Get(reqs[j].Key, nil)
		if err != nil || !ok {
			t.Fatalf("per-key get %q: %v %v", reqs[j].Key, ok, err)
		}
		if !bytes.Equal(batched[j].Cols[0], single[0]) {
			t.Fatalf("key %q: batched %q != per-key %q", reqs[j].Key, batched[j].Cols[0], single[0])
		}
	}

	if n := srv.batchedGets.Load(); n < int64(50*batch) {
		t.Fatalf("batched path served %d gets, want >= %d — segments are not using Session.PointBatchInto", n, 50*batch)
	}
}
