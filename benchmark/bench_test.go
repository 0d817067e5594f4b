package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"io"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/wire"
)

const smokeRecords = 10_000

// smokePlan is a run small enough for tier-1: one-second phases, a
// 5 000-put restart tail.
func smokePlan(trace bool) plan {
	p := plan{warm: 100 * time.Millisecond, saturated: time.Second, tail: 5_000, reopens: 3}
	if trace {
		p.unloaded, p.saturated, p.traced = 500*time.Millisecond, 500*time.Millisecond, 500*time.Millisecond
	}
	return p
}

func smokeOptions(t *testing.T, workload string) options {
	return options{workload: workload, seed: 1, root: t.TempDir(), outDir: t.TempDir(), log: io.Discard}
}

func loadManifest(t *testing.T) *manifest {
	t.Helper()
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// checkReport asserts rep carries exactly the named metrics, each with its
// unit, from a run whose outputs were all correct.
func checkReport(t *testing.T, rep *report, want []manifestMetric) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d, want a clean run", rep.Correct, rep.Attempted, rep.Failed)
	}
	for _, w := range want {
		got, ok := rep.Metrics[w.Name]
		if !ok {
			t.Errorf("metric %s not emitted", w.Name)
		} else if got.Unit != w.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", w.Name, got.Unit, w.Unit)
		}
	}
	if len(rep.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, BENCHMARK.json lists %d", len(rep.Metrics), len(want))
	}
}

func assertEmptyDir(t *testing.T, dir string) {
	t.Helper()
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("data directory not removed: %s still holds %d entries", dir, len(left))
	}
}

func TestManifestNamesTheWorkloads(t *testing.T) {
	m := loadManifest(t)
	if len(m.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the driver has %d", len(m.Workloads), len(specs))
	}
	for i, w := range m.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the driver %q", i, w.Name, specs[i].name)
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	m := loadManifest(t)
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			o := smokeOptions(t, sp.name)
			rep, err := runEndToEnd(context.Background(), o, sp, smokeRecords, smokePlan(false))
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, m.EndToEnd)
			for name, v := range rep.Metrics {
				if v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, v.Value)
				}
			}
			assertEmptyDir(t, o.root)
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	m := loadManifest(t)
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			o := smokeOptions(t, sp.name)
			rep, err := runTraced(context.Background(), o, sp, smokeRecords, smokePlan(true))
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, m.PerLayer)
			if _, err := os.Stat(o.outDir + "/trace-" + sp.name + ".json"); err != nil {
				t.Errorf("spans not written: %v", err)
			}
			assertEmptyDir(t, o.root)
		})
	}
}

// The byte counts a later issue may rest a claim on must repeat exactly.
func TestByteCountsRepeat(t *testing.T) {
	sp, _ := findSpec("mixed-zipf")
	var runs [2]*report
	for i := range runs {
		rep, err := runTraced(context.Background(), smokeOptions(t, sp.name), sp, smokeRecords, smokePlan(true))
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = rep
	}
	for _, name := range []string{"wal.bytes_per_put", "checkpoint.bytes_per_key", "wire.resp_bytes_per_op"} {
		a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value
		if a != b || a == 0 {
			t.Errorf("%s = %v then %v, want equal and non-zero", name, a, b)
		}
	}
}

// A run that fails its checks must still remove its data directory: here
// every request times out because the context is already done.
func TestFailedRunCleansUp(t *testing.T) {
	sp, _ := findSpec("put-uniform")
	o := smokeOptions(t, sp.name)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := runEndToEnd(ctx, o, sp, smokeRecords, smokePlan(false))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed == 0 {
		t.Errorf("correct=%v failed=%d, want a failed run", rep.Correct, rep.Failed)
	}
	assertEmptyDir(t, o.root)

	// Set-up failing half way leaves nothing behind either.
	o = smokeOptions(t, sp.name)
	blocked := o.root + "/file"
	if err := os.WriteFile(blocked, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	o.root = blocked
	if _, err := runEndToEnd(context.Background(), o, sp, smokeRecords, smokePlan(false)); err == nil {
		t.Error("set-up under a regular file succeeded")
	}
}

func ringDigest(t *testing.T, sp spec, seed int64) [sha256.Size]byte {
	t.Helper()
	d := newDataset(sp, smokeRecords, seed)
	hash := sha256.New()
	var enc []byte
	for conn := 0; conn < numConns; conn++ {
		ring := make([]wire.Request, 4096)
		sp.fill(d, subSeed(seed, streamRing+uint64(conn)), ring)
		for i := 0; i < len(ring); i += satBatch {
			var err error
			if enc, err = wire.AppendTaggedRequests(enc[:0], uint32(i), ring[i:i+satBatch]); err != nil {
				t.Fatal(err)
			}
			hash.Write(enc)
		}
	}
	return [sha256.Size]byte(hash.Sum(nil))
}

func TestSameSeedSameRequestBytes(t *testing.T) {
	for _, sp := range specs {
		a, b, c := ringDigest(t, sp, 7), ringDigest(t, sp, 7), ringDigest(t, sp, 8)
		if a != b {
			t.Errorf("%s: two rings from seed 7 differ", sp.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same ring", sp.name)
		}
	}
}

func TestContentChecksFire(t *testing.T) {
	get, _ := findSpec("get-uniform")
	d := newDataset(get, 1000, 1)
	key := d.keys[0]
	good := make([]byte, d.colSize)
	stamp(good, key, 0, 0xfeed)
	req := wire.Request{Op: wire.OpGet, Key: key}
	if err := d.checkResponse(&req, &wire.Response{Cols: [][]byte{good}}, true); err != nil {
		t.Fatalf("a certified value was rejected: %v", err)
	}
	bad := bytes.Clone(good)
	bad[len(bad)-1] ^= 1
	for name, resp := range map[string]wire.Response{
		"flipped bit":      {Cols: [][]byte{bad}},
		"another key's":    {Cols: [][]byte{stampFor(d, d.keys[1])}},
		"missing column":   {},
		"not found status": {Status: wire.StatusNotFound, Cols: [][]byte{good}},
	} {
		if d.checkResponse(&req, &resp, true) == nil {
			t.Errorf("get: %s passed the check", name)
		}
	}

	// Scans: ascending from the start key, certified, exactly scanLen unless
	// the key space ends.
	scan := wire.Request{Op: wire.OpGetRange, Key: []byte("0"), N: scanLen}
	pairs := func(keys ...[]byte) []wire.Pair {
		var out []wire.Pair
		for _, k := range keys {
			out = append(out, wire.Pair{Key: k, Cols: [][]byte{stampFor(d, k)}})
		}
		return out
	}
	sorted := sortedKeys(d)
	if err := d.checkResponse(&scan, &wire.Response{Pairs: pairs(sorted[:scanLen]...)}, true); err != nil {
		t.Fatalf("a correct scan was rejected: %v", err)
	}
	swapped := pairs(sorted[:scanLen]...)
	swapped[3], swapped[4] = swapped[4], swapped[3]
	corrupt := pairs(sorted[:scanLen]...)
	corrupt[5].Cols = [][]byte{bad}
	for name, resp := range map[string]wire.Response{
		"short":        {Pairs: pairs(sorted[:scanLen-1]...)},
		"out of order": {Pairs: swapped},
		"corrupt pair": {Pairs: corrupt},
	} {
		if d.checkResponse(&scan, &resp, true) == nil {
			t.Errorf("scan: %s passed the check", name)
		}
	}
	last := wire.Request{Op: wire.OpGetRange, Key: sorted[len(sorted)-3], N: scanLen}
	if err := d.checkResponse(&last, &wire.Response{Pairs: pairs(sorted[len(sorted)-3:]...)}, true); err != nil {
		t.Errorf("a scan ending with the key space was rejected: %v", err)
	}
}

// A corrupted value in the store must surface as failed operations of a
// driven phase, through the real server and client.
func TestCorruptedValueFailsTheRun(t *testing.T) {
	sp, _ := findSpec("get-uniform")
	h, err := setUp(sp, 1000, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	victim := h.data.keys[0]
	ss := h.store.Session(0)
	ss.PutSimple(victim, []byte("garbage!"))
	ss.Close()
	for i := range h.rings[0] {
		h.rings[0][i].Key = victim
	}
	res := h.runPhase(context.Background(), make([]int, numConns), unloadedShape, 0, 300*time.Millisecond, false)
	if res.failed == 0 || res.firstErr == nil {
		t.Fatalf("%d gets of a corrupted value, none failed its check", res.attempted)
	}
	if want := res.attempted / checkEvery; res.failed < want/2 || res.failed > want+1 {
		t.Errorf("%d of %d failed, want about 1 in %d", res.failed, res.attempted, checkEvery)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles = %v %v %v, want 1 3 4.5", q1, q2, q3)
	}
}

func TestThroughputOverWholeGCCycles(t *testing.T) {
	measure := time.Unix(1000, 0)
	// 10 s of 10 ms slices: 100 requests a slice, 10 while a GC marks
	// (the 1 s before each cycle end at 2.5 s, 5.5 s and 8.5 s).
	rec := &connRecord{ops: make([]int64, 1000)}
	ends := []time.Duration{2500 * time.Millisecond, 5500 * time.Millisecond, 8500 * time.Millisecond}
	for i := range rec.ops {
		rec.ops[i] = 100
		for _, e := range ends {
			if at := time.Duration(i) * 10 * time.Millisecond; at >= e-time.Second && at < e {
				rec.ops[i] = 10
			}
		}
	}
	r := &phaseResult{slice: 10 * time.Millisecond, measure: measure, conns: []*connRecord{rec}}
	for _, e := range ends {
		r.gcEnds = append(r.gcEnds, measure.Add(e))
	}
	got, cycles := r.throughput()
	// Between 2.5 s and 8.5 s: two cycles, each 2 s at 10 000/s and 1 s at 1 000/s.
	if want := (2*10_000.0 + 1_000) / 3; cycles != 2 || got < want*0.999 || got > want*1.001 {
		t.Errorf("throughput = %.1f over %d cycles, want %.1f over 2", got, cycles, want)
	}
	r.gcEnds = r.gcEnds[:1]
	if got, cycles := r.throughput(); cycles != 0 || got != 7300 {
		t.Errorf("one cycle end: throughput = %.1f over %d cycles, want the whole window's 7300 over 0", got, cycles)
	}
}

func TestGCEndsSince(t *testing.T) {
	start := time.Now()
	runtime.GC()
	runtime.GC()
	if n := len(gcEndsSince(start)); n < 2 {
		t.Errorf("%d GC cycle ends after two forced cycles, want at least 2", n)
	}
}

func stampFor(d *dataset, key []byte) []byte {
	b := make([]byte, d.colSize)
	stamp(b, key, 0, 42)
	return b
}

func sortedKeys(d *dataset) [][]byte {
	out := append([][]byte(nil), d.keys...)
	slices.SortFunc(out, bytes.Compare)
	return out
}
