package server

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/kvstore"
	"repro/internal/model"
	"repro/internal/value"
	"repro/internal/wire"
	"repro/internal/ycsb"
)

// TestIntegrationYCSBOverNetwork drives MYCSB-A (50% get, 50% column put)
// through real TCP connections against a store with logging enabled, then
// restarts the server and verifies recovery preserved every key.
func TestIntegrationYCSBOverNetwork(t *testing.T) {
	dir := t.TempDir()
	store, err := kvstore.Open(kvstore.Config{Dir: dir, Workers: 2, FlushInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, 2)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()

	const records = 2000
	// Load phase over the network, batched.
	loader, err := client.DialConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	var batch []wire.Request
	for i := uint64(0); i < records; i++ {
		key, cols := ycsb.LoadRecord(i)
		puts := make([]wire.ColData, len(cols))
		for c, col := range cols {
			puts[c] = wire.ColData{Col: c, Data: col}
		}
		batch = append(batch, wire.Request{Op: wire.OpPut, Key: key, Puts: puts})
		if len(batch) == 100 {
			if _, err := loader.Do(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if _, err := loader.Do(batch); err != nil {
			t.Fatal(err)
		}
	}
	loader.Close()

	// Run phase: several clients, mixed gets and single-column updates.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.DialConn(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			src, err := ycsb.New("A", records, int64(w+1))
			if err != nil {
				t.Error(err)
				return
			}
			reqs := make([]wire.Request, 50)
			for round := 0; round < 40; round++ {
				for i := range reqs {
					op := src.Next()
					switch op.Kind {
					case ycsb.Read:
						reqs[i] = wire.Request{Op: wire.OpGet, Key: op.Key}
					case ycsb.Update:
						reqs[i] = wire.Request{Op: wire.OpPut, Key: op.Key,
							Puts: []wire.ColData{{Col: op.Col, Data: op.Data}}}
					}
				}
				resps, err := c.Do(reqs)
				if err != nil {
					t.Error(err)
					return
				}
				for i, r := range resps {
					if reqs[i].Op == wire.OpGet && r.Status == wire.StatusOK && len(r.Cols) != ycsb.NumColumns {
						t.Errorf("get returned %d columns", len(r.Cols))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	srv.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: every record must survive with all columns.
	store2, err := kvstore.Open(kvstore.Config{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if store2.Len() != records {
		t.Fatalf("recovered %d records, want %d", store2.Len(), records)
	}
	sess := store2.Session(0)
	for i := uint64(0); i < records; i++ {
		key, _ := ycsb.LoadRecord(i)
		v, ok := sess.GetValue(key)
		if !ok || v.NumCols() != ycsb.NumColumns {
			t.Fatalf("record %d damaged after recovery: ok=%v cols=%d", i, ok, v.NumCols())
		}
	}
}

// TestIntegrationCheckpointUnderNetworkLoad checkpoints while network
// clients write, then recovers and holds every key to the value and version
// each client's internal/model holds for it.
func TestIntegrationCheckpointUnderNetworkLoad(t *testing.T) {
	dir := t.TempDir()
	store, err := kvstore.Open(kvstore.Config{Dir: dir, Workers: 2, FlushInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, 2)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()

	var wg sync.WaitGroup
	models := []*model.Model{model.New(), model.New()}
	for w := range models {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.DialConn(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 3000; i++ {
				k := fmt.Sprintf("w%d-%05d", w, i%1500)
				v := fmt.Sprintf("v%d", i)
				ver, err := c.PutSimple([]byte(k), []byte(v))
				if err != nil {
					t.Error(err)
					return
				}
				models[w].Put(k, ver, 0, model.ColPut{Data: []byte(v)})
			}
		}(w)
	}
	ckpts := 0
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
		default:
			if _, _, err := store.CheckpointN(0); err != nil {
				t.Error(err)
			}
			ckpts++
			continue
		}
		break
	}
	srv.Close()
	store.Close()
	if ckpts == 0 {
		t.Fatal("no checkpoint ran during load")
	}

	store2, err := kvstore.Open(kvstore.Config{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	sess := store2.Session(0)
	for _, m := range models {
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		for _, p := range m.Range("", m.Len(), 0) {
			got, ok := sess.GetValue([]byte(p.Key))
			if !ok || string(got.Col(0)) != string(p.Cols[0]) || got.Version() != p.Version {
				t.Fatalf("key %q = %q version %d, %v; want %s after recovery (%d checkpoints ran)", p.Key, got.Col(0), got.Version(), ok, p.State, ckpts)
			}
		}
	}
}

// TestIntegrationValueColumnsAtomicOverNetwork verifies §4.7 end to end:
// multi-column puts are never observed torn by concurrent network readers.
func TestIntegrationValueColumnsAtomicOverNetwork(t *testing.T) {
	store, err := kvstore.Open(kvstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, 2)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()
	defer func() {
		srv.Close()
		store.Close()
	}()

	key := []byte("pair")
	store.Session(0).Put(key, []value.ColPut{{Col: 0, Data: []byte("0")}, {Col: 1, Data: []byte("0")}})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // writer keeps both columns equal, updated atomically
		defer wg.Done()
		c, err := client.DialConn(addr)
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v := []byte(fmt.Sprintf("%d", i))
			c.Put(key, []wire.ColData{{Col: 0, Data: v}, {Col: 1, Data: v}})
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.DialConn(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 2000; i++ {
				cols, _, ok, err := c.Get(key, nil)
				if err != nil || !ok {
					t.Errorf("get failed: %v", err)
					return
				}
				if string(cols[0]) != string(cols[1]) {
					t.Errorf("torn multi-column read: %q vs %q", cols[0], cols[1])
					return
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
}
