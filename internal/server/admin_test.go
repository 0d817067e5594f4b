package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/wire"
)

// adminWorkout runs enough traffic through the execute paths to populate
// the get/put single-op and batch histograms.
func adminWorkout(t *testing.T, srv *Server, sess *kvstore.Session) {
	t.Helper()
	sc := &connScratch{}
	var reqs []wire.Request
	for i := 0; i < 32; i++ {
		key := []byte(fmt.Sprintf("admin-key-%04d", i))
		reqs = append(reqs, wire.Request{Op: wire.OpPut, Key: key,
			Puts: []wire.ColData{{Col: 0, Data: []byte("admin-value")}}})
	}
	srv.executeBatch(sess, reqs, len(reqs), sc) // batched put run
	for i := range reqs {
		reqs[i] = wire.Request{Op: wire.OpGet, Key: reqs[i].Key}
	}
	srv.executeBatch(sess, reqs, len(reqs), sc) // batched get run
	scan := wire.Request{Op: wire.OpGetRange, Key: []byte("admin-key-"), N: 4}
	srv.executeBatch(sess, []wire.Request{scan, scan}, 2, sc) // batched scan run
	// Stretches of one: alternating ops break the runs, so each get and put
	// lands in its single-op histogram, each scan counting as batched.
	for i := range reqs[:4] {
		srv.executeBatch(sess, []wire.Request{
			reqs[i],
			{Op: wire.OpGetRange, Key: []byte("admin-key-"), N: 4},
			{Op: wire.OpPut, Key: reqs[i].Key,
				Puts: []wire.ColData{{Col: 0, Data: []byte("admin-value2")}}},
			{Op: wire.OpCas, Key: reqs[i].Key, ExpectVersion: ^uint64(0),
				Puts: []wire.ColData{{Col: 0, Data: []byte("admin-value3")}}},
		}, 4, sc)
	}
}

// TestAdminSurfacesAgree pins the acceptance criterion that /metrics,
// /varz, and the wire Stats op report the same quantiles: all three render
// from one collectStats pass, and on a quiesced server three consecutive
// snapshots are identical, so every lat_* key must match across surfaces
// value-for-value.
func TestAdminSurfacesAgree(t *testing.T) {
	store, err := kvstore.Open(kvstore.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := New(store, 2)
	sess := store.Session(1)
	adminWorkout(t, srv, sess)

	// Surface 1: the wire Stats op.
	wireStats := map[string]int64{}
	for _, p := range srv.statsResponse().Pairs {
		if string(p.Key) == "flush_last_error" {
			continue
		}
		v, err := strconv.ParseInt(string(p.Cols[0]), 10, 64)
		if err != nil {
			t.Fatalf("stats op key %q=%q not numeric: %v", p.Key, p.Cols[0], err)
		}
		wireStats[string(p.Key)] = v
	}
	if wireStats["lat_get_count"] == 0 || wireStats["lat_put_count"] == 0 ||
		wireStats["lat_get_batch_count"] == 0 || wireStats["lat_put_batch_count"] == 0 ||
		wireStats["lat_scan_count"] == 0 {
		t.Fatalf("workout left histograms empty: %v", wireStats)
	}
	if wireStats["batched_scans"] != 6 || wireStats["lat_scan_count"] != 6 {
		t.Fatalf("batched_scans=%d lat_scan_count=%d after a run of 2 and 4 runs of one, want 6 and 6",
			wireStats["batched_scans"], wireStats["lat_scan_count"])
	}
	for _, stem := range []string{"lat_get", "lat_put", "lat_scan"} {
		if wireStats[stem+"_p50"] == 0 || wireStats[stem+"_p999"] < wireStats[stem+"_p50"] {
			t.Fatalf("%s quantiles implausible: p50=%d p999=%d",
				stem, wireStats[stem+"_p50"], wireStats[stem+"_p999"])
		}
	}

	mux := srv.AdminMux()

	// Surface 2: /varz. The stats map must equal the Stats op exactly, and
	// each broken-out histogram's quantiles must equal its lat_* keys.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/varz", nil))
	var varz struct {
		Stats map[string]int64    `json:"stats"`
		Hists map[string]varzHist `json:"hists"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &varz); err != nil {
		t.Fatalf("varz not JSON: %v\n%s", err, rec.Body.String())
	}
	for k, v := range wireStats {
		if varz.Stats[k] != v {
			t.Errorf("varz stats[%q]=%d, Stats op says %d", k, varz.Stats[k], v)
		}
	}
	if len(varz.Stats) != len(wireStats) {
		t.Errorf("varz has %d stats keys, Stats op has %d", len(varz.Stats), len(wireStats))
	}
	for name, h := range varz.Hists {
		stem := "lat_" + name
		for suffix, got := range map[string]uint64{
			"_count": h.Count, "_sum": h.SumNS,
			"_p50": h.P50, "_p90": h.P90, "_p99": h.P99, "_p999": h.P999,
		} {
			if int64(got) != wireStats[stem+suffix] {
				t.Errorf("varz hist %s%s=%d, Stats op key says %d",
					stem, suffix, got, wireStats[stem+suffix])
			}
		}
	}

	// Surface 3: /metrics. Every scalar gauge must equal the Stats op key of
	// the same name; histogram _count lines must match lat_*_count.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	promVals := map[string]int64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed metrics line %q", line)
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			t.Fatalf("metrics line %q value not integer: %v", line, err)
		}
		promVals[name] = n
	}
	for k, v := range wireStats {
		if strings.HasPrefix(k, "lat_") && obsIsBucket(k) {
			continue // raw buckets appear as histogram blocks instead
		}
		if promVals["masstree_"+k] != v {
			t.Errorf("/metrics masstree_%s=%d, Stats op says %d", k, promVals["masstree_"+k], v)
		}
	}
	for name, h := range varz.Hists {
		if got := promVals["masstree_lat_"+name+"_ns_count"]; got != int64(h.Count) {
			t.Errorf("/metrics histogram %s count=%d, varz says %d", name, got, h.Count)
		}
	}
}

// obsIsBucket mirrors obs.IsBucketKey for the test's skip logic without
// importing obs under a clashing name.
func obsIsBucket(k string) bool {
	i := strings.LastIndex(k, "_b")
	if i < 0 {
		return false
	}
	_, err := strconv.Atoi(k[i+2:])
	return err == nil
}

// TestAdminFlightRecorder exercises the /flightrecorder dump: an evicting
// store records eviction events, and the endpoint serves the merged
// timeline as text.
func TestAdminFlightRecorder(t *testing.T) {
	store, err := kvstore.Open(kvstore.Config{Workers: 1, MaxBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := New(store, 1)
	sess := store.Session(0)
	for i := 0; i < 256; i++ {
		sess.PutSimple([]byte(fmt.Sprintf("fr-key-%04d", i)), make([]byte, 128))
	}
	deadline := time.Now().Add(5 * time.Second)
	for store.CacheStats().Evictions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("maintenance never evicted past MaxBytes")
		}
		time.Sleep(time.Millisecond)
	}

	rec := httptest.NewRecorder()
	srv.AdminMux().ServeHTTP(rec, httptest.NewRequest("GET", "/flightrecorder", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "evict") {
		t.Fatalf("flight recorder dump has no evict events:\n%s", body)
	}
}
