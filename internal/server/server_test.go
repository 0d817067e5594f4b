package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/kvstore"
	"repro/internal/kvsuite"
	"repro/internal/wire"
)

func startServer(t *testing.T, dir string) (*Server, string) {
	t.Helper()
	cfg := kvstore.Config{}
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

// TestKVSuite runs the wire suite against one server through two Conns, one
// of which holds a single batch in flight at a time.
func TestKVSuite(t *testing.T) {
	_, addr := startServer(t, "")
	kvsuite.Run(t, kvsuite.Target{Conns: []*client.Conn{dialConn(t, addr), dialConn(t, addr, client.WithWindow(1))}, Ranges: true})
}

func TestServerPersistsThroughRestart(t *testing.T) {
	dir := t.TempDir()
	store, err := kvstore.Open(kvstore.Config{Dir: dir, Workers: 2})
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

	store2, err := kvstore.Open(kvstore.Config{Dir: dir, Workers: 2})
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
	for _, k := range []string{"root_retries", "bytes_live", "max_bytes", "evictions", "expirations", "ghost_hits", "admit_drops", "flush_errors"} {
		if _, ok := stats[k]; !ok {
			t.Fatalf("missing %s metric", k)
		}
	}
	if stats["bytes_live"] <= 0 {
		t.Fatalf("bytes_live = %d, want > 0", stats["bytes_live"])
	}
}

// TestTTLExpiresOverWire verifies a short-TTL key becomes invisible to
// remote reads once its deadline passes (lazy expiry; no sweep needed), on a
// store with no byte budget. The server computes deadlines from wire TTL
// seconds, so the shortest expressible TTL is 1s — the test waits it out.
func TestTTLExpiresOverWire(t *testing.T) {
	_, addr := startServer(t, "")
	conn := dialConn(t, addr)
	if _, err := conn.PutSimpleTTL([]byte("blink"), []byte("v"), 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, _, ok, err := conn.Get([]byte("blink"), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break // expired
		}
		if time.Now().After(deadline) {
			t.Fatal("key did not expire within 5s of a 1s TTL")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if _, ok, err := conn.Touch([]byte("blink"), 60); err != nil || ok {
		t.Fatalf("touch revived an expired key: %v %v", ok, err)
	}
}
