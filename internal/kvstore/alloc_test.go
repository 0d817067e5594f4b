package kvstore

import (
	"fmt"
	"io/fs"
	"math"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/clock"
	"repro/internal/value"
	"repro/internal/vfs"
)

// withAllocKeys puts nkeys keys into s and returns it. Opened on a fake
// clock, s runs no background work, so AllocsPerRun measurements see only
// the operation under test.
func withAllocKeys(s *Store, nkeys int) *Store {
	sess := s.Session(0)
	for i := 0; i < nkeys; i++ {
		sess.PutSimple([]byte(fmt.Sprintf("alloc-key-%06d", i)), []byte("column-zero-data"))
	}
	return s
}

// TestGetIntoAllocFree verifies the append-into read path — GetValue, then
// AppendCols into a reused slice — allocates nothing in steady state, for a
// column subset and for all columns.
func TestGetIntoAllocFree(t *testing.T) {
	s := withAllocKeys(openAt(t, Config{}, clock.NewFake()), 1000)
	sess := s.Session(0)
	key := []byte("alloc-key-000123")
	cols := []int{0}
	dst := make([][]byte, 0, 4)

	allocs := testing.AllocsPerRun(200, func() {
		v, ok := sess.GetValue(key)
		dst = AppendCols(dst[:0], v, cols)
		if !ok || len(dst) != 1 || string(dst[0]) != "column-zero-data" {
			t.Fatalf("GetValue+AppendCols: %q %v", dst, ok)
		}
	})
	if allocs != 0 {
		t.Fatalf("Session.GetValue+AppendCols allocates %.1f times per run, want 0", allocs)
	}

	allocs = testing.AllocsPerRun(200, func() {
		v, ok := sess.GetValue(key)
		dst = AppendCols(dst[:0], v, nil)
		if !ok || len(dst) != 1 {
			t.Fatalf("GetValue+AppendCols all-cols: %q %v", dst, ok)
		}
	})
	if allocs != 0 {
		t.Fatalf("Session.GetValue+AppendCols all-cols allocates %.1f times per run, want 0", allocs)
	}
}

// TestGetBatchIntoAllocFree verifies the session's batched lookup is
// allocation-free once its scratch has warmed to the batch size.
func TestGetBatchIntoAllocFree(t *testing.T) {
	s := withAllocKeys(openAt(t, Config{}, clock.NewFake()), 1000)
	sess := s.Session(0)
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

// TestGetBatchMatchesGet pins the batched lookup's input-order results
// against one GetValue per key.
func TestGetBatchMatchesGet(t *testing.T) {
	s := withAllocKeys(openAt(t, Config{}, clock.NewFake()), 100)
	sess := s.Session(0)
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
	out, found := sess.GetBatchInto(keys)
	for i, k := range keys {
		v, ok := sess.GetValue(k)
		if ok != found[i] {
			t.Fatalf("key %q: found %v vs %v", k, found[i], ok)
		}
		if ok && string(out[i].Col(0)) != string(v.Col(0)) {
			t.Fatalf("key %q: %q vs %q", k, out[i].Col(0), v.Col(0))
		}
	}
}

// TestPutSimpleAllocs pins every single-key write face, unlogged and logged,
// at one allocation where the write publishes — the packed value; the
// descent, the version draw, the one-key key and column lists, the scratch
// and the log encoding into a buffer that has the room are allocation-free —
// and at none for a CasPut that declines. The logged store's buffers are
// grown past the measured volume first and emptied before each row: a row's
// 300 puts never reach the log's kick level, so no background flush swaps a
// buffer here, and what a put costs at the volume where one does is
// TestPutBatchVolumeAllocBytes' to pin.
func TestPutSimpleAllocs(t *testing.T) {
	key := []byte("alloc-key-000123")
	data := []byte("updated-column-data!")
	two := []value.ColPut{{Col: 0, Data: data}, {Col: 1, Data: data}}
	for _, logged := range []bool{false, true} {
		name, cfg := "unlogged", Config{}
		if logged {
			name, cfg = "logged", Config{Dir: t.TempDir(), Workers: 1}
		}
		s := withAllocKeys(openAt(t, cfg, clock.NewFake()), 1000)
		sess := s.Session(0)
		ver := sess.PutSimple(key, data)
		rows := []struct {
			name string
			max  float64
			run  func()
		}{
			{"PutSimple", 1, func() { ver = sess.PutSimple(key, data) }},
			{"two-column Put", 1, func() { ver = sess.Put(key, two) }},
			{"PutTTL", 1, func() { ver = sess.PutTTL(key, two[:1], time.Hour) }},
			{"Touch", 1, func() { ver, _ = sess.Touch(key, time.Hour) }},
			{"CasPut hit", 1, func() {
				var ok bool
				if ver, ok = sess.CasPut(key, ver, two[:1]); !ok {
					t.Fatal("CasPut missed its own version")
				}
			}},
			{"CasPut miss", 0, func() {
				if _, ok := sess.CasPut(key, ver+1, two[:1]); ok {
					t.Fatal("CasPut hit a version never drawn")
				}
			}},
		}
		for round := 0; logged && round < 2; round++ {
			for _, r := range rows {
				for i := 0; i < 300; i++ {
					r.run()
				}
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, r := range rows {
			if logged {
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if got := testing.AllocsPerRun(200, r.run); got > r.max {
				t.Errorf("%s %s allocates %.1f times per run, want <= %.0f", name, r.name, got, r.max)
			}
		}
	}
}

// TestDropAllocFree pins both ways a key leaves at zero allocations, with
// logging off and on: Session.Remove, a one-key write whose remove record is
// encoded into a log buffer that has the room, and the eviction callback's
// clean drop.
func TestDropAllocFree(t *testing.T) {
	for _, logged := range []bool{false, true} {
		cfg := Config{Workers: 1}
		if logged {
			cfg.Dir = t.TempDir()
		}
		s := openAt(t, cfg, clock.NewFake())
		sess := s.Session(0)
		keys := make([][]byte, 300) // more than one measurement's 201 runs
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("drop-key-%06d", i))
		}
		fill := func() {
			for _, k := range keys {
				sess.PutSimple(k, []byte("v"))
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		// Grow both log buffers past the measured remove volume.
		for round := 0; round < 2; round++ {
			fill()
			for _, k := range keys {
				sess.Remove(k)
			}
		}
		for _, d := range []struct {
			name string
			drop func([]byte) bool
		}{{"Session.Remove", sess.Remove}, {"evictKey", s.evictKey}} {
			fill()
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				if !d.drop(keys[i]) {
					t.Fatalf("%s found no key %q", d.name, keys[i])
				}
				i++
			})
			if allocs != 0 {
				t.Errorf("%s (logged %v) allocates %.1f times per run, want 0", d.name, logged, allocs)
			}
		}
	}
}

// TestPutBatchIntoAllocs pins the batched put at one packed value per key
// once the scratch is warm.
func TestPutBatchIntoAllocs(t *testing.T) {
	s := withAllocKeys(openAt(t, Config{}, clock.NewFake()), 1000)
	sess := s.Session(0)
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
// puts alternating, one key hit by both — and a one-key frame of either kind
// at one packed value per put and nothing per get, logged and unlogged, once
// the scratch is warm.
func TestPointBatchIntoAllocs(t *testing.T) {
	mem := vfs.NewMemFS()
	if err := mem.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	logged := openAt(t, Config{Dir: "d", FS: nullDevice{mem}}, clock.NewFake())
	for name, s := range map[string]*Store{"unlogged": withAllocKeys(openAt(t, Config{}, clock.NewFake()), 1000), "logged": logged} {
		sess := s.Session(0)
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
		// A one-key frame, which runs no wave: a get allocates nothing, a put
		// its packed value.
		for _, at := range []int{0, 1} { // keys[0] is a get, keys[1] a put
			k, p, ps := keys[at:at+1], put[at:at+1], puts[at:at+1]
			want := 0.0
			if p[0] {
				want = 1
			}
			sess.PointBatchInto(k, p, ps)
			allocs := testing.AllocsPerRun(100, func() {
				if _, found, vers := sess.PointBatchInto(k, p, ps); !p[0] && !found[0] || p[0] && vers[0] == 0 {
					t.Fatal("one-key frame failed")
				}
			})
			if allocs != want {
				t.Errorf("%s: Session.PointBatchInto allocates %.1f per one-key frame (put: %v), want %.0f", name, allocs, p[0], want)
			}
		}
	}
}

// TestGetRangeIntoAllocFree pins a warm range query at zero allocations: the
// pair slice, key copies and column slices come from the reused scratch, and
// the core scan assembles keys in the scratch's buffer.
func TestGetRangeIntoAllocFree(t *testing.T) {
	s := withAllocKeys(openAt(t, Config{}, clock.NewFake()), 1000)
	sess := s.Session(0)
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
// two record shapes, both in the compact form — and every key holds one such
// value, so this is also the value's share of heap_bytes_per_key.
func TestPutAllocBytes(t *testing.T) {
	s := withAllocKeys(openAt(t, Config{}, clock.NewFake()), 1000)
	sess := s.Session(0)
	key := []byte("alloc-key-000123")
	ten := make([]value.ColPut, 10)
	for i := range ten {
		ten[i] = value.ColPut{Col: i, Data: []byte("4444")}
	}
	for _, tc := range []struct {
		name  string
		put   func()
		class float64
	}{
		{"8-byte PutSimple", func() { sess.PutSimple(key, []byte("88888888")) }, 16},
		{"8-byte PutTTL", func() { sess.PutTTL(key, []value.ColPut{{Col: 0, Data: []byte("88888888")}}, time.Hour) }, 24},
		{"ten 4-byte columns", func() { sess.Put(key, ten) }, 48},
		{"one 4-byte column of ten", func() { sess.Put(key, ten[3:4]) }, 48},
	} {
		if got := allocBytesPerRun(200, tc.put); got > tc.class {
			t.Errorf("%s allocates %.1f bytes per put, want <= %.0f", tc.name, got, tc.class)
		}
	}
}

// TestEightByteValuesFitOneLine counts the paper's 8-byte values that cross
// a cache line. prefetchLine fetches the line holding a value's first byte;
// a value that runs past it costs a second, unprefetched miss. A compact
// 8-byte value is 16 bytes in the 16-byte class, so none does; in the
// 24-byte class that the general header would put it in, 2 of every 8 do.
func TestEightByteValuesFitOneLine(t *testing.T) {
	s := openAt(t, Config{}, clock.NewFake())
	sess := s.Session(0)
	const n = 100_000
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("line-%06d", i))
		sess.PutSimple(keys[i], []byte(fmt.Sprintf("%08d", i)))
	}
	crossing := 0
	for _, k := range keys {
		v, ok := sess.GetValue(k)
		if !ok {
			t.Fatalf("%s is missing", k)
		}
		if uintptr(unsafe.Pointer(v))%64+uintptr(v.Size()) > 64 {
			crossing++
		}
	}
	t.Logf("%d of %d 8-byte values cross a cache line", crossing, n)
	if crossing != 0 {
		t.Errorf("%d of %d 8-byte values cross a cache line, want 0", crossing, n)
	}
}

// tenByFour is MYCSB's record, ten 4-byte columns, for record i of
// generation gen: every column says whose it is.
func tenByFour(i, gen int) []value.ColPut {
	puts := make([]value.ColPut, 10)
	for c := range puts {
		puts[c] = value.ColPut{Col: c, Data: fourBytes(i, c, gen)}
	}
	return puts
}

func fourBytes(i, c, gen int) []byte { return []byte{byte('a' + c), byte(gen), byte(i), byte(i >> 8)} }

// TestRecordValuesSpanTwoLines counts the MYCSB records that cross a cache
// line. A compact ten-column record is 48 bytes in the 48-byte class: those
// at offsets 48 and 96 of every 192 bytes cross one line boundary, about half
// of them, and prefetchLine fetches only the first of the two lines. That is
// the price of the sixteen bytes the class saves over the 64-byte one, whose
// objects never cross; what must never happen is a record on three lines.
func TestRecordValuesSpanTwoLines(t *testing.T) {
	s := openAt(t, Config{}, clock.NewFake())
	sess := s.Session(0)
	const n = 100_000
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("record-%06d", i))
		sess.Put(keys[i], tenByFour(i, 0))
	}
	crossing := 0
	for _, k := range keys {
		v, ok := sess.GetValue(k)
		if !ok {
			t.Fatalf("%s is missing", k)
		}
		if v.Size() != 48 {
			t.Fatalf("%s: a ten-column record is %d bytes, want 48", k, v.Size())
		}
		first, last := uintptr(unsafe.Pointer(v))/64, (uintptr(unsafe.Pointer(v))+uintptr(v.Size())-1)/64
		if last-first > 1 {
			t.Fatalf("%s spans %d cache lines, want at most 2", k, last-first+1)
		}
		if last != first {
			crossing++
		}
	}
	t.Logf("%d of %d ten-column records cross a cache line", crossing, n)
}

// TestRestoredRecordsAreCompact: recovery builds values through the same
// builders as puts — NewAt for a checkpoint entry, BuildAt for a log record
// replayed onto it — so a restored ten-column record is as compact as the one
// that was put. Records are checkpointed, a one-column update is logged to
// two of every three after the checkpoint (by the other worker, a handoff
// logged column-complete, or by the same one, a partial-column delta), and
// the store is reopened: every record must read back with the columns it had
// and in 48 bytes.
func TestRestoredRecordsAreCompact(t *testing.T) {
	mem := vfs.NewMemFS()
	if err := mem.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	s := openAt(t, chainCfg(mem), clock.NewFake())
	sess := [2]*Session{s.Session(0), s.Session(1)}
	const n = 3000
	key := func(i int) []byte { return []byte(fmt.Sprintf("record-%05d", i)) }
	for i := 0; i < n; i++ {
		sess[i%2].Put(key(i), tenByFour(i, 0))
	}
	if _, written, err := s.CheckpointN(2); err != nil || written != n {
		t.Fatalf("the checkpoint wrote %d entries, err %v", written, err)
	}
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			continue
		}
		w := (i + i%3) % 2 // i%3 == 1: the other worker; i%3 == 2: the same one
		sess[w].Put(key(i), []value.ColPut{{Col: i % 10, Data: fourBytes(i, i%10, 1)}})
	}

	r := restart(t, s, chainCfg(mem))
	rs := r.Session(0)
	for i := 0; i < n; i++ {
		v, ok := rs.GetValue(key(i))
		if !ok {
			t.Fatalf("%s is missing after the restart", key(i))
		}
		if v.NumCols() != 10 || v.Size() != 48 {
			t.Fatalf("%s: %d columns in %d bytes after the restart, want 10 in 48", key(i), v.NumCols(), v.Size())
		}
		for c := 0; c < 10; c++ {
			gen := 0
			if i%3 != 0 && c == i%10 {
				gen = 1
			}
			if want := fourBytes(i, c, gen); string(v.Col(c)) != string(want) {
				t.Fatalf("%s column %d is %q after the restart, want %q", key(i), c, v.Col(c), want)
			}
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
// kicked flushes per log. A put allocates its packed value (16 B, compact)
// and nothing else: the log buffers survive their flushes (no drop is
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
	s := openAt(t, Config{Dir: "d", FS: nullDevice{mem}, Workers: 2}, clock.NewFake())
	const batch = 16
	const nkeys = 255 * batch // an odd number of batches: the batch-to-worker pattern shifts every cycle
	keys := make([][]byte, nkeys)
	puts := make([][]value.ColPut, nkeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("volume-key-%06d", i))
		puts[i] = []value.ColPut{{Col: 0, Data: []byte("8 bytes!")}}
	}
	sess := [2]*Session{s.Session(0), s.Session(1)}
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
	if perPut >= 16+8 {
		t.Errorf("a logged batched put allocates %.2f bytes at volume, want under 24 (the value's 16 bytes and under 8 of anything else)", perPut)
	}
	if n := s.LogBufferDrops(); n != 0 {
		t.Errorf("LogBufferDrops = %d across the run, want 0: the flushers kept up, so every buffer must survive its flush", n)
	}
}
