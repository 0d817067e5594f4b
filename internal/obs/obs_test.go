package obs

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketBounds(t *testing.T) {
	cases := []struct {
		d time.Duration
		b int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3},
		{1023, 9}, {1024, 10}, {time.Second, 29},
	}
	for _, c := range cases {
		if got := Bucket(c.d); got != c.b {
			t.Errorf("Bucket(%d) = %d, want %d", c.d, got, c.b)
		}
	}
	// Every bucket's low bound maps back into that bucket.
	for b := 1; b < NumBuckets-1; b++ {
		if got := Bucket(time.Duration(BucketLow(b))); got != b {
			t.Errorf("Bucket(BucketLow(%d)) = %d", b, got)
		}
	}
}

func TestHistRecordSnapshotQuantile(t *testing.T) {
	h := NewHist("get", 4)
	// 100 samples at ~1µs, 10 at ~1ms, 1 at ~1s, spread across workers.
	for i := 0; i < 100; i++ {
		h.Record(i, time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Record(i, time.Millisecond)
	}
	h.Record(0, time.Second)
	s := h.Snapshot()
	if got := s.Count(); got != 111 {
		t.Fatalf("count = %d, want 111", got)
	}
	if p50 := s.Quantile(0.50); p50 < 512 || p50 > 2048 {
		t.Errorf("p50 = %dns, want ~1µs", p50)
	}
	if p99 := s.Quantile(0.99); p99 < 512<<10 || p99 > 2048<<10 {
		t.Errorf("p99 = %dns, want ~1ms", p99)
	}
	if p999 := s.Quantile(0.999); p999 < 1<<29 || p999 > 1<<31 {
		t.Errorf("p999 = %dns, want ~1s", p999)
	}
	if mean := s.Mean(); mean == 0 {
		t.Errorf("mean = 0, want > 0")
	}
	if s.Quantile(0) == 0 || s.Quantile(1) == 0 {
		t.Errorf("edge quantiles must report a bucket midpoint, got %d and %d",
			s.Quantile(0), s.Quantile(1))
	}
}

func TestHistNilSafe(t *testing.T) {
	var h *Hist
	h.Record(3, time.Millisecond) // must not panic
	if s := h.Snapshot(); s.Count() != 0 {
		t.Fatalf("nil hist snapshot count = %d", s.Count())
	}
	var r *Registry
	r.Hist(HGet).Record(0, time.Second)
	r.Recorder().Record(0, EvEvict, 1, 2)
	if r.Hist(HPut) != nil || r.Recorder() != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	var rec *Recorder
	rec.Record(1, EvEvict, 0, 0)
	if ev := rec.Events(); ev != nil {
		t.Fatalf("nil recorder events = %v", ev)
	}
}

// RecordN(d, n) is n Records of d: same bucket counts, same sum.
func TestHistRecordNIsNRecords(t *testing.T) {
	one, many := NewHist("scan", 2), NewHist("scan", 2)
	for _, d := range []time.Duration{0, 1, 900, 70_000} {
		for i := 0; i < 16; i++ {
			one.Record(1, d)
		}
		many.RecordN(1, d, 16)
	}
	if a, b := one.Snapshot(), many.Snapshot(); a != b || b.Count() != 64 {
		t.Fatalf("RecordN snapshot %+v, sixteen Records %+v", b, a)
	}
	var nilHist *Hist
	nilHist.RecordN(0, time.Second, 4) // must not panic
}

func TestHistMergeMatchesCombined(t *testing.T) {
	a, b, both := NewHist("x", 2), NewHist("x", 2), NewHist("x", 2)
	durs := []time.Duration{100, 10_000, 1_000_000, 3, 70_000_000}
	for i, d := range durs {
		if i%2 == 0 {
			a.Record(i, d)
		} else {
			b.Record(i, d)
		}
		both.Record(i, d)
	}
	sa := a.Snapshot()
	sa.Merge(b.Snapshot())
	sb := both.Snapshot()
	if sa.Buckets != sb.Buckets || sa.Sum != sb.Sum {
		t.Fatalf("merge mismatch: %+v vs %+v", sa, sb)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if sa.Quantile(q) != sb.Quantile(q) {
			t.Errorf("q%.3f: merged %d vs combined %d", q, sa.Quantile(q), sb.Quantile(q))
		}
	}
}

func TestHistConcurrent(t *testing.T) {
	h := NewHist("put", 8)
	const perG = 5000
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Record(g, time.Duration(1+i%4096))
				if i%64 == 0 {
					_ = h.Snapshot() // snapshots race with recording by design
				}
			}
		}(g)
	}
	wg.Wait()
	if got := h.Snapshot().Count(); got != 8*perG {
		t.Fatalf("count = %d, want %d", got, 8*perG)
	}
}

// The histogram and recorder record paths are the instruments inside the
// 0-alloc pinned hot paths — they must allocate nothing themselves.
func TestRecordPathsAllocFree(t *testing.T) {
	h := NewHist("get", 4)
	if n := testing.AllocsPerRun(1000, func() { h.Record(2, 1500*time.Nanosecond) }); n != 0 {
		t.Fatalf("Hist.Record allocates %.1f/op, want 0", n)
	}
	rec := NewRecorder(4, 64)
	if n := testing.AllocsPerRun(1000, func() { rec.Record(1, EvEvict, 42, 128) }); n != 0 {
		t.Fatalf("Recorder.Record allocates %.1f/op, want 0", n)
	}
	key := []byte("some-key-material")
	if n := testing.AllocsPerRun(1000, func() { _ = KeyHash(key) }); n != 0 {
		t.Fatalf("KeyHash allocates %.1f/op, want 0", n)
	}
	r := NewRegistry(4)
	if n := testing.AllocsPerRun(1000, func() {
		r.Hist(HGet).Record(0, time.Microsecond)
		r.Recorder().Record(0, EvFlushRetry, 1, 2)
	}); n != 0 {
		t.Fatalf("Registry record path allocates %.1f/op, want 0", n)
	}
}

func TestRecorderRingOverwriteAndOrder(t *testing.T) {
	rec := NewRecorder(2, 4)
	for i := 0; i < 10; i++ {
		rec.Record(i%2, EvEvict, uint64(i), 0)
	}
	ev := rec.Events()
	if len(ev) != 8 { // 2 rings × 4 retained
		t.Fatalf("retained %d events, want 8", len(ev))
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].TS < ev[i-1].TS {
			t.Fatalf("events out of order at %d: %d < %d", i, ev[i].TS, ev[i-1].TS)
		}
	}
	// The oldest two events per ring (args 0..3 round-robined) were overwritten.
	for _, e := range ev {
		if e.Arg1 < 2 {
			t.Fatalf("event arg1=%d should have been overwritten", e.Arg1)
		}
	}
}

func TestRecorderDump(t *testing.T) {
	rec := NewRecorder(1, 8)
	rec.Record(0, EvBreakerOpen, 3, 0)
	rec.Record(0, EvCkptCommit, 77, 1000)
	s := rec.DumpString()
	for _, want := range []string{"breaker_open", "ckpt_commit", "arg1=4d", "arg2=1000"} {
		if !strings.Contains(s, want) {
			t.Errorf("dump missing %q:\n%s", want, s)
		}
	}
	var nilRec *Recorder
	if got := nilRec.DumpString(); !strings.Contains(got, "disabled") {
		t.Errorf("nil dump = %q", got)
	}
}

func TestAppendStatsAndRecompute(t *testing.T) {
	h := NewHist("get", 2)
	for i := 0; i < 90; i++ {
		h.Record(0, time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Record(1, time.Millisecond)
	}
	stats := AppendStats(nil, h.Snapshot())
	m := map[string]int64{}
	for _, st := range stats {
		if st.Value < 0 {
			t.Errorf("%s = %d, stats must be non-negative here", st.Name, st.Value)
		}
		m[st.Name] = st.Value
	}
	if m["lat_get_count"] != 100 {
		t.Fatalf("lat_get_count = %d", m["lat_get_count"])
	}
	if m["lat_get_b9"] != 90 || m["lat_get_b19"] != 10 {
		t.Fatalf("bucket keys wrong: %v", m)
	}

	// Simulate a two-node aggregate: every numeric key summed, then repaired.
	agg := map[string]int64{}
	for k, v := range m {
		agg[k] = 2 * v
	}
	RecomputeQuantiles(agg)
	if agg["lat_get_count"] != 200 {
		t.Fatalf("aggregated count = %d, want 200", agg["lat_get_count"])
	}
	if p50 := agg["lat_get_p50"]; p50 != m["lat_get_p50"] {
		t.Fatalf("aggregate p50 %d must match per-node p50 %d (same shape)", p50, m["lat_get_p50"])
	}
	if p999 := agg["lat_get_p999"]; p999 != m["lat_get_p999"] {
		t.Fatalf("aggregate p999 %d vs %d", p999, m["lat_get_p999"])
	}
	// Every derived key parses as a base-10 integer (v1 stats contract).
	for k, v := range agg {
		if _, err := strconv.ParseInt(strconv.FormatInt(v, 10), 10, 64); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
	}
}

func TestBucketKeyParsing(t *testing.T) {
	cases := []struct {
		k    string
		stem string
		b    int
		ok   bool
	}{
		{"lat_get_b7", "lat_get", 7, true},
		{"lat_get_batch_b12", "lat_get_batch", 12, true},
		{"lat_get_batch_p50", "", 0, false},
		{"lat_get_sum", "", 0, false},
		{"keys", "", 0, false},
		{"lat_get_b999", "", 0, false},
	}
	for _, c := range cases {
		stem, b, ok := bucketKey(c.k)
		if stem != c.stem || b != c.b || ok != c.ok {
			t.Errorf("bucketKey(%q) = (%q, %d, %v), want (%q, %d, %v)",
				c.k, stem, b, ok, c.stem, c.b, c.ok)
		}
	}
}

func TestWriteProm(t *testing.T) {
	h := NewHist("get", 1)
	h.Record(0, time.Microsecond)
	h.Record(0, time.Microsecond)
	h.Record(0, time.Millisecond)
	var b strings.Builder
	if err := WriteProm(&b, h.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE masstree_lat_get_ns histogram",
		`masstree_lat_get_ns_bucket{le="1024"} 2`,
		`masstree_lat_get_ns_bucket{le="+Inf"} 3`,
		"masstree_lat_get_ns_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistrySnapshots(t *testing.T) {
	r := NewRegistry(2)
	r.Hist(HPut).Record(0, time.Microsecond)
	snaps := r.Snapshots()
	if len(snaps) != int(NumHists) {
		t.Fatalf("snapshots = %d, want %d", len(snaps), NumHists)
	}
	if snaps[HPut].Count() != 1 || snaps[HPut].Name != "put" {
		t.Fatalf("put snapshot wrong: %+v", snaps[HPut])
	}
	for id := HistID(0); id < NumHists; id++ {
		if histNames[id] == "" {
			t.Fatalf("hist %d has no name", id)
		}
	}
}
