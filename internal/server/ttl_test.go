package server

import (
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/kvstore"
)

// startCacheServer runs a server over a cache-mode store (bounded, with the
// maintenance loop ticking fast so sweeps and evictions actually run).
func startCacheServer(t *testing.T, maxBytes int) (*Server, string) {
	t.Helper()
	store, err := kvstore.Open(kvstore.Config{
		MaintainEvery: time.Millisecond,
		MaxBytes:      maxBytes,
	})
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

// TestTTLOverV2 exercises the cache-mode wire surface end to end: PutTTL
// stores with a deadline, Touch extends it, an expired key reads NotFound,
// and the stats op reports the cache counters.
func TestTTLOverV2(t *testing.T) {
	_, addr := startCacheServer(t, 1<<30)
	conn, err := client.DialConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if _, err := conn.PutSimpleTTL([]byte("short"), []byte("v"), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.PutSimpleTTL([]byte("long"), []byte("w"), 3600); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := conn.Get([]byte("short"), nil); err != nil || !ok {
		t.Fatalf("unexpired key missing: %v %v", ok, err)
	}
	if _, ok, err := conn.Touch([]byte("long"), 7200); err != nil || !ok {
		t.Fatalf("touch live key: %v %v", ok, err)
	}
	if _, ok, err := conn.Touch([]byte("absent"), 60); err != nil || ok {
		t.Fatalf("touch absent key: %v %v", ok, err)
	}
	// TTL 0 via PutTTL behaves like a plain put (never expires).
	if _, err := conn.PutSimpleTTL([]byte("forever"), []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, _ := conn.Get([]byte("forever"), nil); !ok {
		t.Fatal("ttl-0 key missing")
	}

	raw, err := conn.StatsRaw()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bytes_live", "max_bytes", "evictions", "expirations", "ghost_hits", "admit_drops", "flush_errors"} {
		if _, ok := raw[want]; !ok {
			t.Fatalf("stats missing %q: %v", want, raw)
		}
	}
	stats, err := conn.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["bytes_live"] <= 0 {
		t.Fatalf("bytes_live = %d, want > 0", stats["bytes_live"])
	}
}

// TestTTLExpiresOverWire verifies a short-TTL key becomes invisible to
// remote reads once its deadline passes (lazy expiry; no sweep needed).
// The server computes deadlines from wire TTL seconds, so the shortest
// expressible TTL is 1s — the test waits it out.
func TestTTLExpiresOverWire(t *testing.T) {
	_, addr := startCacheServer(t, 0) // TTLs work without a byte budget too
	conn, err := client.DialConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
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
