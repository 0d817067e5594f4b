package kvstore

import (
	"fmt"
	"io/fs"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/value"
	"repro/internal/vfs"
)

// newAllocTestStore returns an in-memory store with background maintenance
// disabled, so AllocsPerRun measurements see only the operation under test.
func newAllocTestStore(t *testing.T, nkeys int) *Store {
	t.Helper()
	s, err := Open(Config{MaintainEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	for i := 0; i < nkeys; i++ {
		s.PutSimple(0, []byte(fmt.Sprintf("alloc-key-%06d", i)), []byte("column-zero-data"))
	}
	return s
}

// TestGetIntoAllocFree verifies the append-into read path allocates nothing
// in steady state, through both the store and an epoch-registered session.
func TestGetIntoAllocFree(t *testing.T) {
	s := newAllocTestStore(t, 1000)
	sess := s.Session(0)
	defer sess.Close()
	key := []byte("alloc-key-000123")
	cols := []int{0}
	dst := make([][]byte, 0, 4)

	allocs := testing.AllocsPerRun(200, func() {
		var ok bool
		dst, ok = sess.GetInto(key, cols, dst[:0])
		if !ok || len(dst) != 1 || string(dst[0]) != "column-zero-data" {
			t.Fatalf("GetInto: %q %v", dst, ok)
		}
	})
	if allocs != 0 {
		t.Fatalf("Session.GetInto allocates %.1f times per run, want 0", allocs)
	}

	allocs = testing.AllocsPerRun(200, func() {
		var ok bool
		dst, ok = s.GetInto(key, nil, dst[:0])
		if !ok || len(dst) != 1 {
			t.Fatalf("GetInto all-cols: %q %v", dst, ok)
		}
	})
	if allocs != 0 {
		t.Fatalf("Store.GetInto allocates %.1f times per run, want 0", allocs)
	}
}

// TestGetBatchIntoAllocFree verifies the session's batched lookup is
// allocation-free once its scratch has warmed to the batch size.
func TestGetBatchIntoAllocFree(t *testing.T) {
	s := newAllocTestStore(t, 1000)
	sess := s.Session(0)
	defer sess.Close()
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("alloc-key-%06d", i*13%1000))
	}

	allocs := testing.AllocsPerRun(200, func() {
		// 64 is four full groups of the wave; 40 ends in a part of one.
		for _, batch := range [][][]byte{keys, keys[:40]} {
			vals, found := sess.GetBatchInto(batch)
			for i := range batch {
				if !found[i] || vals[i] == nil {
					t.Fatalf("batch key %d missing", i)
				}
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Session.GetBatchInto allocates %.1f times per run, want 0", allocs)
	}
}

// TestGetBatchMatchesGet pins the convenience wrapper's input-order results.
func TestGetBatchMatchesGet(t *testing.T) {
	s := newAllocTestStore(t, 100)
	sess := s.Session(0)
	defer sess.Close()
	keys := [][]byte{
		[]byte("alloc-key-000007"), []byte("no-such-key"), []byte("alloc-key-000099"),
	}
	// Keys that share a twig, short remainders and long, and one it lacks.
	for _, tail := range []string{"1", "22", "3-and-a-remainder-past-the-twig"} {
		k := []byte("twigtwig" + tail)
		sess.PutSimple(k, k)
		keys = append(keys, k)
	}
	keys = append(keys, []byte("twigtwig2"))
	out, found := sess.GetBatch(keys, nil)
	for i, k := range keys {
		cols, ok := sess.Get(k, nil)
		if ok != found[i] {
			t.Fatalf("key %q: found %v vs %v", k, found[i], ok)
		}
		if ok && string(out[i][0]) != string(cols[0]) {
			t.Fatalf("key %q: %q vs %q", k, out[i][0], cols[0])
		}
	}
}

// TestPutSimpleAllocs pins the logging-disabled put hot path at exactly one
// allocation: the packed value (value.BuildAt). The tree descent, version
// tick, and scratch are all allocation-free.
func TestPutSimpleAllocs(t *testing.T) {
	s := newAllocTestStore(t, 1000)
	sess := s.Session(0)
	defer sess.Close()
	key := []byte("alloc-key-000123")
	data := []byte("updated-column-data!")

	allocs := testing.AllocsPerRun(200, func() {
		if sess.PutSimple(key, data) == 0 {
			t.Fatal("put failed")
		}
	})
	if allocs > 1 {
		t.Fatalf("Session.PutSimple allocates %.1f times per run, want <= 1 (the packed value)", allocs)
	}
}

// TestPutSimpleLoggedAllocs pins the logged put path: one packed value plus
// log encoding into a buffer that has the room. Its 300 puts never reach the
// log's kick level, so no background flush swaps a buffer here; what a put
// costs at the volume where they do is TestPutBatchVolumeAllocBytes' to pin.
func TestPutSimpleLoggedAllocs(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), Workers: 1, FlushInterval: time.Hour, MaintainEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	sess := s.Session(0)
	defer sess.Close()
	key := []byte("logged-alloc-key")
	data := []byte("logged-column-data")
	// Grow both log buffers past the measured append volume.
	for round := 0; round < 2; round++ {
		for i := 0; i < 300; i++ {
			sess.PutSimple(key, data)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		sess.PutSimple(key, data)
	})
	if allocs > 1 {
		t.Fatalf("logged Session.PutSimple allocates %.1f times per run, want <= 1", allocs)
	}
}

// TestPutBatchIntoAllocs pins the batched put at one packed value per key
// once the scratch is warm.
func TestPutBatchIntoAllocs(t *testing.T) {
	s := newAllocTestStore(t, 1000)
	sess := s.Session(0)
	defer sess.Close()
	const batch = 64
	keys := make([][]byte, batch)
	puts := make([][]value.ColPut, batch)
	flat := make([]value.ColPut, batch)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("alloc-key-%06d", i*13%1000))
		flat[i] = value.ColPut{Col: 0, Data: []byte("batched-column-data")}
		puts[i] = flat[i : i+1]
	}
	sess.PutBatchInto(keys, puts) // warm the scratch
	allocs := testing.AllocsPerRun(100, func() {
		vers := sess.PutBatchInto(keys, puts)
		if len(vers) != batch || vers[0] == 0 {
			t.Fatal("batch put failed")
		}
	})
	if allocs > batch {
		t.Fatalf("Session.PutBatchInto allocates %.1f per %d-key batch, want <= %d (one packed value per key)", allocs, batch, batch)
	}
}

// TestPointBatchIntoAllocs pins a mixed frame — sixteen requests, gets and
// puts alternating, one key hit by both — at one packed value per put and
// nothing per get, logged and unlogged, once the scratch is warm.
func TestPointBatchIntoAllocs(t *testing.T) {
	mem := vfs.NewMemFS()
	if err := mem.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	logged, err := Open(Config{Dir: "d", FS: nullDevice{mem}, MaintainEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { logged.Close() })
	for name, s := range map[string]*Store{"unlogged": newAllocTestStore(t, 1000), "logged": logged} {
		sess := s.Session(0)
		defer sess.Close()
		const batch, nputs = 16, 7
		keys, put, puts := make([][]byte, batch), make([]bool, batch), make([][]value.ColPut, batch)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("alloc-key-%06d", i*61%1000))
			sess.PutSimple(keys[i], []byte("column-zero-data"))
			if put[i] = i%2 == 1 && i < 2*nputs; put[i] {
				puts[i] = []value.ColPut{{Col: 0, Data: []byte("mixed-column-data")}}
			}
		}
		keys[6] = keys[5] // a get behind a put of its own key
		for i := 0; i < 300; i++ {
			sess.PointBatchInto(keys, put, puts) // warm the scratch and the log buffers
		}
		allocs := testing.AllocsPerRun(100, func() {
			vals, found, vers := sess.PointBatchInto(keys, put, puts)
			if !found[0] || vers[1] == 0 || vals[6].Version() != vers[5] {
				t.Fatal("mixed batch failed")
			}
		})
		if allocs != nputs {
			t.Errorf("%s: Session.PointBatchInto allocates %.1f per frame of %d gets and %d puts, want %d (one packed value per put)",
				name, allocs, batch-nputs, nputs, nputs)
		}
	}
}

// TestGetRangeIntoAllocFree pins a warm range query at zero allocations: the
// pair slice, key copies and column slices come from the reused scratch, and
// the core scan assembles keys in the scratch's buffer.
func TestGetRangeIntoAllocFree(t *testing.T) {
	s := newAllocTestStore(t, 1000)
	sess := s.Session(0)
	defer sess.Close()
	var sc RangeScratch
	start := []byte("alloc-key-000100")
	cols := []int{0}
	const n = 50
	sess.GetRangeInto(start, n, cols, &sc) // warm the arenas

	allocs := testing.AllocsPerRun(100, func() {
		sc.Reset()
		pairs := sess.GetRangeInto(start, n, cols, &sc)
		if len(pairs) != n || string(pairs[0].Key) != "alloc-key-000100" {
			t.Fatalf("range: %d pairs", len(pairs))
		}
	})
	if allocs != 0 {
		t.Fatalf("Session.GetRangeInto allocates %.1f per %d-pair range, want 0", allocs, n)
	}

	// A run of sixteen behind the start-key wave, in the same scratch.
	starts, ns, colSets := make([][]byte, 16), make([]int, 16), make([][]int, 16)
	for i := range starts {
		starts[i], ns[i], colSets[i] = []byte(fmt.Sprintf("alloc-key-%06d", 50*i)), 10, cols
	}
	sess.GetRangeBatchInto(starts, ns, colSets, &sc)
	allocs = testing.AllocsPerRun(100, func() {
		sc.Reset()
		runs := sess.GetRangeBatchInto(starts, ns, colSets, &sc)
		if len(runs) != 16 || len(runs[15]) != 10 || string(runs[15][0].Key) != "alloc-key-000750" {
			t.Fatalf("range run: %d windows", len(runs))
		}
	})
	if allocs != 0 {
		t.Fatalf("Session.GetRangeBatchInto allocates %.1f per 16-range run, want 0", allocs)
	}
}

// allocBytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one
// call of f costs, size class rounding included, as the TotalAlloc delta
// over runs calls (ReadMemStats flushes every P's allocation cache into the
// total, so the figure is exact). It is the least of three batches: a stray
// allocation by the runtime or a leftover goroutine lands in one.
func allocBytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm-up, as AllocsPerRun does
	least := math.Inf(1)
	for batch := 0; batch < 3; batch++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, float64(after.TotalAlloc-before.TotalAlloc)/float64(runs))
	}
	return least
}

// TestPutAllocBytes pins what a steady-state overwrite costs in heap bytes,
// beside TestPutSimpleAllocs' count: the one allocation is the packed value,
// in the size class the value layout was cut to reach for the benchmark's
// two record shapes — and every key holds one such value, so this is also
// the value's share of heap_bytes_per_key.
func TestPutAllocBytes(t *testing.T) {
	s := newAllocTestStore(t, 1000)
	sess := s.Session(0)
	defer sess.Close()
	key := []byte("alloc-key-000123")
	ten := make([]value.ColPut, 10)
	for i := range ten {
		ten[i] = value.ColPut{Col: i, Data: []byte("4444")}
	}
	future := nowNanos() + uint64(time.Hour)
	for _, tc := range []struct {
		name  string
		put   func()
		class float64
	}{
		{"8-byte PutSimple", func() { sess.PutSimple(key, []byte("88888888")) }, 24},
		{"8-byte PutSimpleTTL", func() { sess.PutSimpleTTL(key, []byte("88888888"), future) }, 32},
		{"ten 4-byte columns", func() { sess.Put(key, ten) }, 64},
		{"one 4-byte column of ten", func() { sess.Put(key, ten[3:4]) }, 64},
	} {
		if got := allocBytesPerRun(200, tc.put); got > tc.class {
			t.Errorf("%s allocates %.1f bytes per put, want <= %.0f", tc.name, got, tc.class)
		}
	}
}

// nullDevice is a filesystem whose files take every write and keep none.
type nullDevice struct{ vfs.FS }

type nullFile struct{ vfs.File }

func (d nullDevice) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	f, err := d.FS.OpenFile(name, flag, perm)
	return nullFile{f}, err
}

func (nullFile) Write(p []byte) (int, error) { return len(p), nil }

// TestPutBatchVolumeAllocBytes pins the logged write path at the volume the
// benchmark runs it at: a million 8-byte puts in sixteen-key batches through
// two workers' logs with their background flushers live, a hundred-odd
// kicked flushes per log. A put allocates its packed value (22 B, the 24 B
// class) and nothing else: the log buffers survive their flushes (no drop is
// counted), and a batch in which keys changed hands between the workers —
// about half of these do, and are logged as column-complete anchors — still
// takes one pass under one log-buffer lock, with no ColPut slice built per
// anchor. At PR 21 the same run cost 340 B per put. The logs go to a device
// that never stalls: this loop logs three times what the benchmark can, and a
// disk that falls a buffer behind it is the case drops exist for.
func TestPutBatchVolumeAllocBytes(t *testing.T) {
	mem := vfs.NewMemFS()
	if err := mem.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Config{Dir: "d", FS: nullDevice{mem}, Workers: 2, MaintainEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	const batch = 16
	const nkeys = 255 * batch // an odd number of batches: the batch-to-worker pattern shifts every cycle
	keys := make([][]byte, nkeys)
	puts := make([][]value.ColPut, nkeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("volume-key-%06d", i))
		puts[i] = []value.ColPut{{Col: 0, Data: []byte("8 bytes!")}}
	}
	sess := [2]*Session{s.Session(0), s.Session(1)}
	defer sess[0].Close()
	defer sess[1].Close()
	handoffs, b := 0, 0
	run := func(nputs int) {
		for end := b + nputs/batch; b < end; b++ {
			off := b % (nkeys / batch) * batch
			ss := sess[b/2%2]
			if v, ok := ss.GetValue(keys[off]); ok && v.Worker() != uint32(ss.Worker()) {
				handoffs++
			}
			ss.PutBatchInto(keys[off:off+batch], puts[off:off+batch])
			// A worker returns to its connection between batches; on one
			// P that is when a kicked flusher gets the core.
			runtime.Gosched()
		}
	}
	run(200_000) // insert the keys, grow the scratch and the four log buffers
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	handoffs = 0
	const nputs = 1_000_000
	run(nputs)
	runtime.ReadMemStats(&after)
	if handoffs < nputs/batch/4 {
		t.Fatalf("%d of %d batches began with a handoff: the run does not exercise anchors", handoffs, nputs/batch)
	}
	perPut := float64(after.TotalAlloc-before.TotalAlloc) / nputs
	t.Logf("%.2f bytes allocated per put; %d of %d batches began with a handoff", perPut, handoffs, nputs/batch)
	if perPut > 24+8 {
		t.Errorf("a logged batched put allocates %.1f bytes at volume, want <= 32 (the value's 24-byte class + 8)", perPut)
	}
	if n := s.LogBufferDrops(); n != 0 {
		t.Errorf("LogBufferDrops = %d across the run, want 0: the flushers kept up, so every buffer must survive its flush", n)
	}
}
