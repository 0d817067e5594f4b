package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/kvstore"
	"repro/internal/wire"
)

func startServer(t *testing.T, dir string) (*Server, string) {
	t.Helper()
	cfg := kvstore.Config{MaintainEvery: -1}
	if dir != "" {
		cfg.Dir = dir
		cfg.Workers = 2
	}
	store, err := kvstore.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, 2)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		store.Close()
	})
	return srv, srv.Addr().String()
}

func TestEndToEnd(t *testing.T) {
	_, addr := startServer(t, "")
	c := dialConn(t, addr, client.WithWindow(1))

	if _, err := c.PutSimple([]byte("hello"), []byte("world")); err != nil {
		t.Fatal(err)
	}
	got, _, ok, err := c.Get([]byte("hello"), nil)
	if err != nil || !ok || string(got[0]) != "world" {
		t.Fatalf("get: %q %v %v", got, ok, err)
	}
	if _, _, ok, _ := c.Get([]byte("missing"), nil); ok {
		t.Fatal("phantom key")
	}
	existed, err := c.Remove([]byte("hello"))
	if err != nil || !existed {
		t.Fatalf("remove: %v %v", existed, err)
	}
	if _, _, ok, _ := c.Get([]byte("hello"), nil); ok {
		t.Fatal("key survived remove")
	}
}

func TestBatchedQueries(t *testing.T) {
	_, addr := startServer(t, "")
	c := dialConn(t, addr)

	const batch = 100
	reqs := make([]wire.Request, batch)
	for i := range reqs {
		reqs[i] = wire.Request{
			Op:   wire.OpPut,
			Key:  []byte(fmt.Sprintf("k%03d", i)),
			Puts: []wire.ColData{{Col: 0, Data: []byte(fmt.Sprintf("v%d", i))}},
		}
	}
	resps, err := c.Do(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		if r.Status != wire.StatusOK {
			t.Fatalf("put %d status %d", i, r.Status)
		}
	}
	// Versions within one connection's batch must be increasing (same log).
	for i := 1; i < batch; i++ {
		if resps[i].Version <= resps[i-1].Version {
			t.Fatalf("versions not increasing: %d then %d", resps[i-1].Version, resps[i].Version)
		}
	}
	gets := make([]wire.Request, batch)
	for i := range gets {
		gets[i] = wire.Request{Op: wire.OpGet, Key: []byte(fmt.Sprintf("k%03d", i))}
	}
	resps, err = c.Do(gets)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		if r.Status != wire.StatusOK || string(r.Cols[0]) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get %d: %+v", i, r)
		}
	}
}

func TestRangeOverNetwork(t *testing.T) {
	_, addr := startServer(t, "")
	c := dialConn(t, addr)
	for i := 0; i < 30; i++ {
		c.Put([]byte(fmt.Sprintf("k%03d", i)), []wire.ColData{
			{Col: 0, Data: []byte("a")}, {Col: 1, Data: []byte(fmt.Sprintf("b%d", i))},
		})
	}
	pairs, err := c.GetRange([]byte("k010"), 5, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 5 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	for i, p := range pairs {
		if string(p.Key) != fmt.Sprintf("k%03d", 10+i) || string(p.Cols[0]) != fmt.Sprintf("b%d", 10+i) {
			t.Fatalf("pair %d: %q %q", i, p.Key, p.Cols)
		}
	}
}

func TestManyConcurrentClients(t *testing.T) {
	_, addr := startServer(t, "")
	const clients = 8
	const perClient = 300
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := client.DialConn(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < perClient; i++ {
				k := []byte(fmt.Sprintf("c%d-%04d", ci, i))
				if _, err := c.PutSimple(k, k); err != nil {
					t.Error(err)
					return
				}
			}
			for i := 0; i < perClient; i++ {
				k := []byte(fmt.Sprintf("c%d-%04d", ci, i))
				got, _, ok, err := c.Get(k, nil)
				if err != nil || !ok || !bytes.Equal(got[0], k) {
					t.Errorf("get %q: %v %v %v", k, got, ok, err)
					return
				}
			}
		}(ci)
	}
	wg.Wait()
}

func TestServerPersistsThroughRestart(t *testing.T) {
	dir := t.TempDir()
	store, err := kvstore.Open(kvstore.Config{Dir: dir, Workers: 2, MaintainEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, 2)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c, err := client.DialConn(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		c.PutSimple([]byte(fmt.Sprintf("p%03d", i)), []byte("v"))
	}
	c.Close()
	srv.Close()
	store.Close()

	store2, err := kvstore.Open(kvstore.Config{Dir: dir, Workers: 2, MaintainEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if store2.Len() != 100 {
		t.Fatalf("recovered %d keys over restart", store2.Len())
	}
}

func TestMalformedInputDropsConnection(t *testing.T) {
	_, addr := startServer(t, "")
	c := dialConn(t, addr)
	// Another connection sends garbage; the valid client must be unaffected.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte("\xff\xff\xff\xffgarbage-that-is-not-a-frame"))
	raw.Close()
	if _, err := c.PutSimple([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("valid client affected: %v", err)
	}
}

// TestConnectionWithoutHelloIsClosed opens connections the way a client of
// an older protocol would: a put in an untagged frame (u32 body length,
// then the body) with no hello ahead of it, and a hello proposing version
// 1. The server must close each without answering or executing anything —
// the key stays absent and no request counts as errored — and go on
// serving a client that does open with a hello.
func TestConnectionWithoutHelloIsClosed(t *testing.T) {
	srv, addr := startServer(t, "")
	body := binary.LittleEndian.AppendUint32(nil, 1) // one request
	body = append(body, byte(wire.OpPut))
	body = binary.LittleEndian.AppendUint16(body, uint16(len("legacy")))
	body = append(body, "legacy"...)
	body = append(body, 1)                           // one column
	body = binary.LittleEndian.AppendUint16(body, 0) // column 0
	body = binary.LittleEndian.AppendUint32(body, 1) // one byte of data
	body = append(body, 'v')
	untagged := append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)

	for name, opening := range map[string][]byte{
		"an untagged put":      untagged,
		"a hello of version 1": wire.AppendHello(nil, 1),
	} {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := raw.Write(opening); err != nil {
			t.Fatal(err)
		}
		raw.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := raw.Read(make([]byte, 64))
		raw.Close()
		if n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s: read %d bytes (%v), want the connection closed unanswered", name, n, err)
		}
	}
	if _, ok := srv.store.Session(0).GetValue([]byte("legacy")); ok {
		t.Fatal("the untagged put was executed")
	}
	c := dialConn(t, addr)
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["errored_requests"] != 0 || stats["keys"] != 0 {
		t.Fatalf("after two refused openings: errored_requests=%d keys=%d, want 0 and 0", stats["errored_requests"], stats["keys"])
	}
	if _, err := c.PutSimple([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("a client with a hello was not served: %v", err)
	}
}

func TestStatsOverNetwork(t *testing.T) {
	_, addr := startServer(t, "")
	c := dialConn(t, addr)
	for i := 0; i < 100; i++ {
		c.PutSimple([]byte(fmt.Sprintf("s%03d", i)), []byte("v"))
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["keys"] != 100 {
		t.Fatalf("stats keys = %d, want 100", stats["keys"])
	}
	if stats["splits"] < 1 {
		t.Fatalf("stats splits = %d, expected at least one split", stats["splits"])
	}
	if _, ok := stats["root_retries"]; !ok {
		t.Fatal("missing root_retries metric")
	}
}
