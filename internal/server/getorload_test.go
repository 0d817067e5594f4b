package server

import (
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/client"
	"repro/internal/kvstore"
)

// startBackendServer runs a server over a store wired to a mock backend,
// returning all three so tests can seed the backend and inject faults.
func startBackendServer(t *testing.T, cfg kvstore.Config, m *backend.Mock) (*Server, string) {
	t.Helper()
	cfg.Backend = m
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

// TestGetOrLoadOverV2 exercises the read-through surface end to end: a miss
// loads from the backend and installs, a second read is a pure cache hit
// (no second backend load), an absent key answers NotFound, and the
// backend-tier stats keys are reported.
func TestGetOrLoadOverV2(t *testing.T) {
	m := backend.NewMock(0)
	m.Seed("k", backend.EncodeCols([][]byte{[]byte("from-backend")}))
	_, addr := startBackendServer(t, kvstore.Config{}, m)
	conn, err := client.DialConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	vals, ver, stale, ok, err := conn.GetOrLoad([]byte("k"), nil)
	if err != nil || !ok || stale {
		t.Fatalf("GetOrLoad = (ok=%v stale=%v err=%v)", ok, stale, err)
	}
	if ver == 0 || len(vals) != 1 || string(vals[0]) != "from-backend" {
		t.Fatalf("loaded value = %q version %d", vals, ver)
	}
	if _, _, _, ok, err := conn.GetOrLoad([]byte("k"), nil); err != nil || !ok {
		t.Fatalf("second GetOrLoad: ok=%v err=%v", ok, err)
	}
	if got := m.LoadsFor("k"); got != 1 {
		t.Fatalf("backend loaded %d times, want 1 (second read must hit the tree)", got)
	}
	if _, _, _, ok, err := conn.GetOrLoad([]byte("absent"), nil); err != nil || ok {
		t.Fatalf("absent key: ok=%v err=%v", ok, err)
	}
	// A plain Get still misses: read-through is opt-in per request.
	if _, _, ok, _ := conn.Get([]byte("absent"), nil); ok {
		t.Fatal("plain Get found a key that only a load could produce")
	}

	raw, err := conn.StatsRaw()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"loads", "load_errors", "herd_coalesced", "stale_served",
		"negative_hits", "breaker_state", "breaker_opens", "writebehind_depth",
		"writebehind_drops", "flush_retries"} {
		if _, ok := raw[want]; !ok {
			t.Fatalf("stats missing %q: %v", want, raw)
		}
	}
	stats, err := conn.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["loads"] != 1 {
		t.Fatalf("loads stat = %d, want 1", stats["loads"])
	}
}

// TestGetOrLoadStaleOverWire drives the degradation path through the wire:
// a value expires, the backend goes down, and GetOrLoad answers StatusStale
// with the expired value instead of an error.
func TestGetOrLoadStaleOverWire(t *testing.T) {
	m := backend.NewMock(0)
	_, addr := startBackendServer(t, kvstore.Config{MaxStale: time.Minute}, m)
	conn, err := client.DialConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if _, err := conn.PutSimpleTTL([]byte("k"), []byte("old"), 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, ok, err := conn.Get([]byte("k"), nil); err != nil {
			t.Fatal(err)
		} else if !ok {
			break // expired
		}
		if time.Now().After(deadline) {
			t.Fatal("1s TTL did not lapse within 5s")
		}
		time.Sleep(50 * time.Millisecond)
	}
	m.SetError(backend.ErrUnavailable)
	vals, _, stale, ok, err := conn.GetOrLoad([]byte("k"), nil)
	if err != nil || !ok || !stale {
		t.Fatalf("GetOrLoad during outage = (ok=%v stale=%v err=%v), want stale hit", ok, stale, err)
	}
	if len(vals) != 1 || string(vals[0]) != "old" {
		t.Fatalf("stale value = %q, want the expired resident one", vals)
	}
	// A key with nothing resident fails fast with an error status.
	if _, _, _, _, err := conn.GetOrLoad([]byte("nothing"), nil); err == nil {
		t.Fatal("GetOrLoad of absent key during outage did not error")
	}
}
