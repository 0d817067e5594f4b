package server

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode"

	"repro/internal/backend"
	"repro/internal/breaker"
	"repro/internal/client"
	"repro/internal/kvstore"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// TestStatsCoverTreeCounters walks core.StatsSnapshot by reflection: every
// tree counter must reach the stats surface — the wire stats op, /metrics
// and /varz all render collectStats — under its snake_case name and with
// the store's value, so a counter added to core cannot be left unexported.
func TestStatsCoverTreeCounters(t *testing.T) {
	store, err := kvstore.Open(kvstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sess := store.Session(0)
	for i := 0; i < 100; i++ { // an ascending run: splits and run splits
		sess.PutSimple([]byte(fmt.Sprintf("key%03d", i)), []byte("v"))
	}
	stats, _ := New(store, 1).collectStats()
	got := map[string]int64{}
	for _, st := range stats {
		got[st.Name] = st.Value
	}
	snap := reflect.ValueOf(store.Stats())
	for i := 0; i < snap.NumField(); i++ {
		field := snap.Type().Field(i).Name
		var name strings.Builder
		for j, r := range field {
			if unicode.IsUpper(r) && j > 0 {
				name.WriteByte('_')
			}
			name.WriteRune(unicode.ToLower(r))
		}
		v, ok := got[name.String()]
		if !ok {
			t.Errorf("core.StatsSnapshot.%s has no stat key %q", field, name.String())
		} else if want := snap.Field(i).Int(); v != want {
			t.Errorf("stat %q = %d, core.StatsSnapshot.%s = %d", name.String(), v, field, want)
		}
	}
}

// numericExceptFlushLastError fails t unless every stat but
// flush_last_error — the one that carries an error's text — is a base-10
// integer. Conn.Stats and cluster.StatsAggregate drop whatever does not
// parse and masstree-client -json prints it as a string, so a key whose
// value stops parsing would leave the numeric views without an error.
func numericExceptFlushLastError(t *testing.T, raw map[string]string) {
	t.Helper()
	for k, v := range raw {
		if k == "flush_last_error" {
			continue
		}
		if _, err := strconv.ParseInt(v, 10, 64); err != nil {
			t.Fatalf("stat %q=%q is not numeric", k, v)
		}
	}
}

// TestFlushLastErrorInStats pins the one string-valued metric: while a flush
// failure is latched, the stats response carries its text as
// flush_last_error beside a non-zero flush_errors, every other stat stays an
// integer, and the numeric view skips the string instead of failing on it.
func TestFlushLastErrorInStats(t *testing.T) {
	mem := vfs.NewMemFS()
	fault := vfs.NewFault(mem)
	store, err := kvstore.Open(kvstore.Config{
		Dir: "/data", Workers: 1, FS: fault, SyncWrites: true,
		FlushInterval: time.Hour,
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
	store.Session(0).PutSimple([]byte("k"), []byte("v"))
	fault.CrashAt(1)
	if err := store.Flush(); err == nil {
		t.Fatal("flush unexpectedly succeeded")
	}
	if n, last := store.FlushStats(); n == 0 || last == nil {
		t.Fatalf("flush error not latched: n=%d last=%v", n, last)
	}

	c, err := client.DialConn(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	raw, err := c.StatsRaw()
	if err != nil {
		t.Fatal(err)
	}
	if msg, present := raw["flush_last_error"]; !present || msg == "" {
		t.Fatalf("stats missing flush_last_error: %v", raw)
	}
	if raw["flush_errors"] == "0" {
		t.Fatal("flush_errors did not report the failure")
	}
	numericExceptFlushLastError(t, raw)
	stats, err := c.Stats()
	if err != nil {
		t.Fatalf("numeric Stats failed on the string metric: %v", err)
	}
	if _, present := stats["flush_last_error"]; present || stats["flush_errors"] == 0 {
		t.Fatalf("numeric Stats: flush_last_error present=%v, flush_errors=%d", present, stats["flush_errors"])
	}
}

// TestFlushBufferDropsStat drives the log's released-buffer count non-zero —
// one put larger than the writers' retain cap, flushed — and reads it back as
// the store's accessor and as flush_buffer_drops on the stats surface.
func TestFlushBufferDropsStat(t *testing.T) {
	store, err := kvstore.Open(kvstore.Config{Dir: t.TempDir(), Workers: 1, FlushInterval: time.Hour})
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
	sess := store.Session(0)
	sess.PutSimple([]byte("small"), []byte("v"))
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := drops(); n != 0 {
		t.Fatalf("flush_buffer_drops = %d after a small put, want 0", n)
	}
	sess.PutSimple([]byte("huge"), make([]byte, 2<<20))
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := drops(); n != 1 {
		t.Fatalf("flush_buffer_drops = %d after a 2 MiB put, want 1", n)
	}
}

// TestStatsNumericWithBreakerTripped audits the state-machine metrics
// against the same rule while they are *non-zero*: with the backend breaker
// freshly tripped, breaker_state must report its state as an integer (1 =
// open, never a name like "open") and every other stat must stay
// ParseInt-clean. The cluster client's node_state follows the identical
// convention (pinned by TestClusterStatsAllNumeric); this is the server half
// of that audit, taken at the worst moment — mid-outage, when an operator is
// most likely to be reading the stats.
func TestStatsNumericWithBreakerTripped(t *testing.T) {
	m := backend.NewMock(0)
	w := backend.Wrap(m, backend.WrapConfig{BreakerFailures: 1, BreakerOpenFor: time.Hour})
	store, err := kvstore.Open(kvstore.Config{Workers: 1, Backend: w})
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
	c, err := client.DialConn(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, _, _, err := c.GetOrLoad([]byte("absent"), nil); err == nil {
		t.Fatal("getorload against a dead backend succeeded")
	}
	if st := store.LoaderStats(); st.Backend.BreakerState != breaker.Open {
		t.Fatalf("breaker not open: %+v", st.Backend)
	}

	raw, err := c.StatsRaw()
	if err != nil {
		t.Fatal(err)
	}
	state, present := raw["breaker_state"]
	if !present {
		t.Fatal("breaker_state missing from stats")
	}
	if n, err := strconv.ParseInt(state, 10, 64); err != nil || n != int64(breaker.Open) {
		t.Fatalf("breaker_state=%q, want the integer %d", state, breaker.Open)
	}
	numericExceptFlushLastError(t, raw)
}

// TestStatsHistogramKeysNumeric sweeps the histogram-derived stats keys:
// every lat_* key (counts, sums, quantiles, raw buckets) must be a base-10
// integer, and traffic must actually surface them — the keys ride the one
// stats response every reader parses, so a non-numeric key here would
// vanish from Conn.Stats without an error.
func TestStatsHistogramKeysNumeric(t *testing.T) {
	store, err := kvstore.Open(kvstore.Config{Workers: 1})
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
	for i := 0; i < 8; i++ {
		key := []byte("compat-key-" + strconv.Itoa(i))
		if _, err := c.PutSimple(key, []byte("compat-value")); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := c.Get(key, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Three scans in one frame are a run; a fourth sent alone is a run of
	// one. Every scan counts as batched and as one lat_scan observation.
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
	if raw["batched_scans"] != "4" || raw["lat_scan_count"] != "4" {
		t.Fatalf("batched_scans=%q lat_scan_count=%q after a run of 3 and a run of one, want 4 and 4", raw["batched_scans"], raw["lat_scan_count"])
	}
	if raw["batched_gets"] != "8" || raw["batched_puts"] != "8" {
		t.Fatalf("batched_gets=%q batched_puts=%q after 8 lone gets and 8 lone puts, want 8 and 8: a scan moves neither", raw["batched_gets"], raw["batched_puts"])
	}
	numericExceptFlushLastError(t, raw)
	lat := 0
	for k := range raw {
		if strings.HasPrefix(k, "lat_") {
			lat++
		}
	}
	if lat == 0 {
		t.Fatal("stats carry no histogram keys")
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
