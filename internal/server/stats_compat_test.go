package server

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/client"
	"repro/internal/kvstore"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// TestFlushLastErrorOnlyOnV2 pins the stats compatibility rule: the one
// string-valued metric (flush_last_error) is served only on v2 connections.
// Pre-existing v1 client binaries parse every stats value with ParseInt and
// reject the whole response on the first non-numeric one — exactly when the
// operator most needs stats — so the v1 response must stay all-numeric even
// while a flush error is latched.
func TestFlushLastErrorOnlyOnV2(t *testing.T) {
	mem := vfs.NewMemFS()
	fault := vfs.NewFault(mem)
	store, err := kvstore.Open(kvstore.Config{
		Dir: "/data", Workers: 1, FS: fault, SyncWrites: true,
		FlushInterval: time.Hour, MaintainEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, 1)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		store.Close()
	})

	// Latch a flush failure: CrashAt resets the boundary counter, so arming
	// at 1 makes the very next filesystem op (the flush's write) fail.
	store.PutSimple(0, []byte("k"), []byte("v"))
	fault.CrashAt(1)
	if err := store.Flush(); err == nil {
		t.Fatal("flush unexpectedly succeeded")
	}
	if n, last := store.FlushStats(); n == 0 || last == nil {
		t.Fatalf("flush error not latched: n=%d last=%v", n, last)
	}

	addr := srv.Addr().String()
	v1, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer v1.Close()
	rawV1, err := v1.StatsRaw()
	if err != nil {
		t.Fatal(err)
	}
	if _, present := rawV1["flush_last_error"]; present {
		t.Fatal("v1 stats carried the string-valued flush_last_error")
	}
	for k, v := range rawV1 { // an old binary's ParseInt loop must succeed
		if _, err := strconv.ParseInt(v, 10, 64); err != nil {
			t.Fatalf("v1 stat %q=%q is not numeric", k, v)
		}
	}
	if rawV1["flush_errors"] == "0" {
		t.Fatal("flush_errors did not report the failure")
	}

	v2, err := client.DialConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	rawV2, err := v2.StatsRaw()
	if err != nil {
		t.Fatal(err)
	}
	if msg, present := rawV2["flush_last_error"]; !present || msg == "" {
		t.Fatalf("v2 stats missing flush_last_error: %v", rawV2)
	}
	if _, err := v2.Stats(); err != nil { // numeric view skips the string
		t.Fatalf("v2 numeric Stats failed on the string metric: %v", err)
	}
}

// TestFlushBufferDropsStat drives the log's released-buffer count non-zero —
// one put larger than the writers' retain cap, flushed — and reads it back as
// the store's accessor and as flush_buffer_drops on the stats surface.
func TestFlushBufferDropsStat(t *testing.T) {
	store, err := kvstore.Open(kvstore.Config{Dir: t.TempDir(), Workers: 1, FlushInterval: time.Hour, MaintainEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, 1)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		store.Close()
	})
	c, err := client.DialConn(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	drops := func() int64 {
		t.Helper()
		stats, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		n, ok := stats["flush_buffer_drops"]
		if !ok {
			t.Fatalf("stats missing flush_buffer_drops: %v", stats)
		}
		if n != store.LogBufferDrops() {
			t.Fatalf("flush_buffer_drops = %d, Store.LogBufferDrops = %d", n, store.LogBufferDrops())
		}
		return n
	}
	store.PutSimple(0, []byte("small"), []byte("v"))
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := drops(); n != 0 {
		t.Fatalf("flush_buffer_drops = %d after a small put, want 0", n)
	}
	store.PutSimple(0, []byte("huge"), make([]byte, 2<<20))
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := drops(); n != 1 {
		t.Fatalf("flush_buffer_drops = %d after a 2 MiB put, want 1", n)
	}
}

// TestStatsNumericWithBreakerTripped audits the state-machine metrics
// against the same compatibility rule while they are *non-zero*: with the
// backend breaker freshly tripped, breaker_state must report its state as
// an integer (1 = open, never a name like "open") and every other v1 stat
// must stay ParseInt-clean. The cluster client's node_state follows the
// identical convention (pinned by TestClusterStatsAllNumeric); this is the
// server half of that audit, taken at the worst moment — mid-outage, when
// an operator's old binary is most likely to be pointed at the stats
// endpoint.
func TestStatsNumericWithBreakerTripped(t *testing.T) {
	m := backend.NewMock(0)
	w := backend.Wrap(m, backend.WrapConfig{BreakerFailures: 1, BreakerOpenFor: time.Hour})
	store, err := kvstore.Open(kvstore.Config{Workers: 1, MaintainEvery: -1, Backend: w})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, 1)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		store.Close()
	})

	// Trip the breaker through the wire path: one failing read-through load.
	m.SetError(errors.New("backend down"))
	v2, err := client.DialConn(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	if _, _, _, _, err := v2.GetOrLoad([]byte("absent"), nil); err == nil {
		t.Fatal("getorload against a dead backend succeeded")
	}
	if st := store.LoaderStats(); st.Backend.BreakerState != backend.BreakerOpen {
		t.Fatalf("breaker not open: %+v", st.Backend)
	}

	v1, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer v1.Close()
	raw, err := v1.StatsRaw()
	if err != nil {
		t.Fatal(err)
	}
	state, present := raw["breaker_state"]
	if !present {
		t.Fatal("breaker_state missing from v1 stats")
	}
	if n, err := strconv.ParseInt(state, 10, 64); err != nil || n != int64(backend.BreakerOpen) {
		t.Fatalf("breaker_state=%q, want the integer %d", state, backend.BreakerOpen)
	}
	for k, v := range raw { // the old binary's ParseInt loop, mid-outage
		if _, err := strconv.ParseInt(v, 10, 64); err != nil {
			t.Fatalf("v1 stat %q=%q is not numeric", k, v)
		}
	}
}

// TestStatsHistogramKeysV1Numeric sweeps the histogram-derived stats keys
// through a v1 connection: every lat_* key (counts, sums, quantiles, raw
// buckets) must be a base-10 integer an old binary's ParseInt loop accepts,
// and traffic must actually surface them — the keys ride the same stats
// response v1 clients have always parsed, so shipping a non-numeric or
// missing key here would break the oldest deployed tooling first.
func TestStatsHistogramKeysV1Numeric(t *testing.T) {
	store, err := kvstore.Open(kvstore.Config{Workers: 1, MaintainEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, 1)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		store.Close()
	})

	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 8; i++ {
		key := []byte("compat-key-" + strconv.Itoa(i))
		if _, err := c.PutSimple(key, []byte("compat-value")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Get(key, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Three scans in one frame are a run; a fourth sent alone is not. Both
	// count one lat_scan observation per scan.
	scan := wire.Request{Op: wire.OpGetRange, Key: []byte("compat-key-"), N: 3}
	if resps, err := c.Do([]wire.Request{scan, scan, scan}); err != nil || len(resps[2].Pairs) != 3 {
		t.Fatalf("scan run: %+v %v", resps, err)
	}
	if pairs, err := c.GetRange(scan.Key, scan.N, nil); err != nil || len(pairs) != 3 {
		t.Fatalf("single scan: %v %v", pairs, err)
	}
	raw, err := c.StatsRaw()
	if err != nil {
		t.Fatal(err)
	}
	if raw["batched_scans"] != "3" || raw["lat_scan_count"] != "4" {
		t.Fatalf("batched_scans=%q lat_scan_count=%q after a run of 3 and a single, want 3 and 4", raw["batched_scans"], raw["lat_scan_count"])
	}
	if raw["batched_gets"] != "0" || raw["batched_puts"] != "0" {
		t.Fatalf("a scan run moved batched_gets=%q batched_puts=%q", raw["batched_gets"], raw["batched_puts"])
	}
	lat := 0
	for k, v := range raw {
		if _, err := strconv.ParseInt(v, 10, 64); err != nil {
			t.Fatalf("v1 stat %q=%q is not numeric", k, v)
		}
		if strings.HasPrefix(k, "lat_") {
			lat++
		}
	}
	if lat == 0 {
		t.Fatal("v1 stats carry no histogram keys")
	}
	if _, ok := raw["batch_fallbacks"]; !ok { // the tree's newest counter, beside local_retries
		t.Fatal("stats missing batch_fallbacks")
	}
	for _, k := range []string{"lat_get_count", "lat_get_p50", "lat_get_p999", "lat_put_count"} {
		if raw[k] == "" || raw[k] == "0" {
			t.Fatalf("%s=%q after traffic, want non-zero", k, raw[k])
		}
	}
}
