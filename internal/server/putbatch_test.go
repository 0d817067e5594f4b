package server

import (
	"fmt"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/wire"
)

// TestBatchedPutsMatchPerKeyPuts sends messages full of consecutive OpPuts
// (an all-put segment of Session.PointBatchInto) and verifies the stored state and
// returned versions match what per-key puts would produce: every key holds
// its last write, versions are per-key increasing (including duplicates
// inside one message, which must apply in request order), and the
// batched_puts stat proves the batched path served them.
func TestBatchedPutsMatchPerKeyPuts(t *testing.T) {
	srv, addr := startServer(t, t.TempDir())
	c := dialConn(t, addr)

	const batch = 64
	const rounds = 10
	key := func(i int) []byte { return []byte(fmt.Sprintf("bp-key-%04d", i%48)) } // 48 keys → duplicates per message
	lastVer := map[string]uint64{}
	reqs := make([]wire.Request, batch)
	for round := 0; round < rounds; round++ {
		for j := range reqs {
			reqs[j] = wire.Request{Op: wire.OpPut, Key: key(round*batch + j),
				Puts: []wire.ColData{{Col: 0, Data: []byte(fmt.Sprintf("r%02d-j%02d", round, j))}}}
		}
		resps, err := c.Do(reqs)
		if err != nil {
			t.Fatal(err)
		}
		for j, r := range resps {
			if r.Status != wire.StatusOK || r.Version == 0 {
				t.Fatalf("round %d req %d: status %d version %d", round, j, r.Status, r.Version)
			}
			k := string(reqs[j].Key)
			if r.Version <= lastVer[k] {
				t.Fatalf("round %d req %d: key %q version %d not after %d", round, j, k, r.Version, lastVer[k])
			}
			lastVer[k] = r.Version
		}
	}

	// Every key must hold its final write.
	for i := 0; i < 48; i++ {
		var lastData string
		for round := rounds - 1; round >= 0 && lastData == ""; round-- {
			for j := batch - 1; j >= 0; j-- {
				if string(key(round*batch+j)) == string(key(i)) {
					lastData = fmt.Sprintf("r%02d-j%02d", round, j)
					break
				}
			}
		}
		got, _, ok, err := c.Get(key(i), nil)
		if err != nil || !ok {
			t.Fatalf("get %q: %v %v", key(i), ok, err)
		}
		if string(got[0]) != lastData {
			t.Fatalf("key %q = %q, want last batched write %q", key(i), got[0], lastData)
		}
	}

	if n := srv.batchedPuts.Load(); n < int64(rounds*batch) {
		t.Fatalf("batched path served %d puts, want >= %d — segments are not using Session.PointBatchInto", n, rounds*batch)
	}
}

// TestPutRunFrameAliasing pins the no-copy contract: put data decoded from
// the frame may alias the connection's reusable buffers, so consecutive
// messages rewriting the same keys must not corrupt previously stored
// values (the store must have copied the bytes out).
func TestPutRunFrameAliasing(t *testing.T) {
	_, addr := startServer(t, "")
	c := dialConn(t, addr)
	reqs := make([]wire.Request, 8)
	for round := 0; round < 3; round++ {
		for j := range reqs {
			reqs[j] = wire.Request{Op: wire.OpPut, Key: []byte(fmt.Sprintf("alias-%d", j)),
				Puts: []wire.ColData{{Col: 0, Data: []byte(fmt.Sprintf("round%d-value%d", round, j))}}}
		}
		if _, err := c.Do(reqs); err != nil {
			t.Fatal(err)
		}
	}
	for j := range reqs {
		got, _, ok, err := c.Get([]byte(fmt.Sprintf("alias-%d", j)), nil)
		if err != nil || !ok || string(got[0]) != fmt.Sprintf("round2-value%d", j) {
			t.Fatalf("alias-%d = %q %v %v", j, got, ok, err)
		}
	}
}

// TestServerPutPathAllocs pins the server's batched put hot path at its
// steady-state allocation count: one packed value per put and nothing else
// (scratch, responses, and version slices are all reused).
func TestServerPutPathAllocs(t *testing.T) {
	store, err := kvstore.Open(kvstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := New(store, 1)
	sess := store.Session(0)

	const batch = 64
	reqs := make([]wire.Request, batch)
	data := make([]wire.ColData, batch)
	for j := range reqs {
		data[j] = wire.ColData{Col: 0, Data: []byte("steady-state-column-data")}
		reqs[j] = wire.Request{Op: wire.OpPut, Key: []byte(fmt.Sprintf("allocs-key-%04d", j)), Puts: data[j : j+1]}
	}
	sc := &connScratch{}
	srv.executeBatch(sess, reqs, len(reqs), sc) // warm scratch and insert the keys
	allocs := testing.AllocsPerRun(100, func() {
		srv.executeBatch(sess, reqs, len(reqs), sc)
	})
	// One packed value per put is the floor; allow nothing beyond it.
	if allocs > batch {
		t.Fatalf("server put path allocates %.1f per %d-put batch, want <= %d (one packed value per put)", allocs, batch, batch)
	}
}

// TestServerGetRangeAllocFree pins the server's range path at zero
// allocations in steady state: the store's pairs, the wire pairs and the
// scanned keys all land in the connection scratch.
func TestServerGetRangeAllocFree(t *testing.T) {
	store, err := kvstore.Open(kvstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := New(store, 1)
	sess := store.Session(0)
	for j := 0; j < 200; j++ {
		sess.PutSimple([]byte(fmt.Sprintf("range-key-%04d", j)), []byte("column-zero"))
	}

	// A scan alone, a get to end the run of one, then a run of sixteen.
	reqs := []wire.Request{
		{Op: wire.OpGetRange, Key: []byte("range-key-0050"), N: 10},
		{Op: wire.OpGet, Key: []byte("range-key-0050")},
	}
	for j := 0; j < 16; j++ {
		reqs = append(reqs, wire.Request{Op: wire.OpGetRange, Key: []byte(fmt.Sprintf("range-key-%04d", 120+j)), N: 10, Cols: []int{0}})
	}
	sc := &connScratch{}
	srv.executeBatch(sess, reqs, len(reqs), sc) // warm the scratch
	allocs := testing.AllocsPerRun(100, func() {
		srv.executeBatch(sess, reqs, len(reqs), sc)
		if len(sc.resps) != 18 || len(sc.resps[0].Pairs) != 10 || len(sc.resps[17].Pairs) != 10 || string(sc.resps[2].Pairs[0].Key) != "range-key-0120" {
			t.Fatalf("range responses: %+v", sc.resps)
		}
	})
	if allocs != 0 {
		t.Fatalf("server range path allocates %.1f per batch of a single scan and a run of 16, want 0", allocs)
	}
	if n := srv.batchedScans.Load(); n < 16*100 || n%16 != 0 {
		t.Fatalf("batched_scans = %d after 100 and more batches with one run of 16 each", n)
	}
}
