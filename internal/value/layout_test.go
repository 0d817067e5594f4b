package value

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// allocBytes is the heap bytes one call of build costs, size class rounding
// included: the runtime.MemStats.TotalAlloc delta over n calls. ReadMemStats
// flushes every P's allocation cache into the total, so the figure is exact.
// It is the least of three batches: a stray allocation by the runtime lands
// in one.
func allocBytes(n int, build func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	build() // anything lazy happens before the first reading
	least := math.Inf(1)
	for batch := 0; batch < 3; batch++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			build()
		}
		runtime.ReadMemStats(&after)
		least = min(least, float64(after.TotalAlloc-before.TotalAlloc)/float64(n))
	}
	return least
}

var (
	layoutSink *Value
	tinySink   []byte
)

func filled(n int) []byte { return bytes.Repeat([]byte{'x'}, n) }

// TestLayout pins the packed size and the Go size class of the shapes the
// layout was cut for, and of each point where a field changes width or the
// form changes. The class is what a key pays: 16 bytes for an 8-byte column
// and 48 for ten 4-byte columns are the point of the compact header, and one
// byte more on either would cost sixteen. Rows name their version and worker where the form
// depends on them; the rest build at version 7 by worker 3.
func TestLayout(t *testing.T) {
	// cols is a whole record of n columns, width bytes each.
	cols := func(n, width int) []ColPut {
		puts := make([]ColPut, n)
		for i := range puts {
			puts[i] = ColPut{Col: i, Data: filled(width)}
		}
		return puts
	}
	ten := cols(10, 4)
	one := func(n int) []ColPut { return []ColPut{{Col: 0, Data: filled(n)}} }
	const ttl = 1 << 62
	// Allocations under 16 bytes go to the tiny allocator, which packs two
	// 8-byte values into one 16-byte block — except under -race, where each
	// takes a block of its own.
	tinyPacked := allocBytes(50, func() { tinySink = make([]byte, 8) }) == 8
	for _, tc := range []struct {
		name        string
		old         func() *Value
		puts        []ColPut
		version     uint64
		worker      uint32
		expiry      uint64
		size, class int
	}{
		{name: "1x8", puts: one(8), size: 8 + 8, class: 16},
		{name: "1x8 TTL", puts: one(8), expiry: ttl, size: 8 + 8 + 8, class: 24},
		{name: "1x0: the smallest value", puts: one(0), size: 8, class: 8},
		{name: "1x0 TTL", puts: one(0), expiry: ttl, size: 8 + 8, class: 16},
		{name: "1x63: the longest compact column", puts: one(63), size: 8 + 63, class: 80},
		{name: "1x64: general", puts: one(64), size: 13 + 1 + 64, class: 80},
		{name: "1x64 TTL", puts: one(64), expiry: ttl, size: 13 + 8 + 1 + 64, class: 96},
		{name: "version 2^44-1: compact", puts: one(8), version: 1<<44 - 1, size: 8 + 8, class: 16},
		{name: "version 2^44: general", puts: one(8), version: 1 << 44, size: 13 + 1 + 8, class: 24},
		{name: "worker 255: compact", puts: one(8), worker: 255, size: 8 + 8, class: 16},
		{name: "worker 256: general", puts: one(8), worker: 256, size: 13 + 1 + 8, class: 24},
		{name: "two columns: general", puts: []ColPut{{Col: 1, Data: filled(8)}}, size: 13 + 2 + 8, class: 24},
		{name: "10x4", puts: ten, size: 8 + 40, class: 48},
		{name: "10x4 TTL", puts: ten, expiry: ttl, size: 8 + 8 + 40, class: 64},
		{name: "10x0: empty columns", puts: []ColPut{{Col: 9}}, size: 8, class: 8},
		{name: "16x3: the most columns a compact value holds", puts: cols(16, 3), size: 8 + 48, class: 64},
		{name: "17x3: a seventeenth column goes general",
			old: func() *Value { return BuildAt(nil, cols(16, 3), 1, 0) }, puts: []ColPut{{Col: 16, Data: filled(3)}},
			size: 13 + 17 + 51, class: 96},
		{name: "no columns", size: 13, class: 16},
		{name: "no columns TTL", expiry: ttl, size: 13 + 8, class: 24},
		{name: "a put of the same width to column 1 stays compact: 2x8",
			old: func() *Value { return BuildAt(nil, one(8), 1, 0) }, puts: []ColPut{{Col: 1, Data: filled(8)}},
			size: 8 + 16, class: 24},
		{name: "a put of another width to one column of ten goes general",
			old: func() *Value { return BuildAt(nil, ten, 1, 0) }, puts: []ColPut{{Col: 3, Data: filled(5)}},
			size: 13 + 10 + 41, class: 64},
		{name: "a put back to the shared width goes compact again",
			old:  func() *Value { return BuildAt(BuildAt(nil, ten, 1, 0), []ColPut{{Col: 3, Data: filled(5)}}, 2, 0) },
			puts: ten[3:4], size: 8 + 40, class: 48},
		{name: "an overwrite back to one short column goes compact again",
			old: func() *Value { return BuildAt(nil, one(64), 1, 0) }, puts: one(8), size: 8 + 8, class: 16},
		{name: "a touch below 2^44 goes compact again",
			old: func() *Value { return BuildAt(nil, one(8), 1<<44, 0) }, expiry: ttl, size: 8 + 8 + 8, class: 24},
		{name: "1x255: the last 1-byte end", puts: one(255), size: 13 + 1 + 255, class: 288},
		{name: "1x256: the first 2-byte end", puts: one(256), size: 13 + 2 + 256, class: 288},
		{name: "1x65535: the last 2-byte end", puts: one(65535), size: 13 + 2 + 65535, class: 9 * 8192},
		{name: "1x65536: the first 4-byte end", puts: one(65536), size: 13 + 4 + 65536, class: 9 * 8192},
		{name: "touch keeps the columns and adds an expiry",
			old: func() *Value { return BuildAt(nil, ten, 1, 0) }, expiry: ttl, size: 8 + 8 + 40, class: 64},
		{name: "touch to never drops the expiry again",
			old: func() *Value { return BuildTTLAt(nil, ten, 1, 0, ttl) }, size: 8 + 40, class: 48},
		{name: "growth past the width leaves empty columns and widens the ends",
			old: func() *Value { return BuildAt(nil, one(8), 1, 0) }, puts: []ColPut{{Col: 5, Data: filled(250)}},
			size: 13 + 6*2 + 258, class: 288},
		{name: "an overwrite that shrinks the data narrows the ends again",
			old: func() *Value { return BuildAt(nil, []ColPut{{Col: 0, Data: filled(70000)}, {Col: 1}}, 1, 0) }, puts: one(8),
			size: 13 + 2 + 8, class: 24},
		{name: "column 65534 makes the most columns the u16 count holds",
			puts: []ColPut{{Col: MaxCol, Data: filled(1)}}, size: 13 + 1<<16 - 1 + 1, class: 9 * 8192},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var old *Value
			if tc.old != nil {
				old = tc.old()
			}
			version, worker := tc.version, tc.worker
			if version == 0 && worker == 0 {
				version, worker = 7, 3
			}
			v := BuildTTLAt(old, tc.puts, version, worker, tc.expiry)
			if v.Size() != tc.size {
				t.Errorf("Size = %d, want %d", v.Size(), tc.size)
			}
			// A collection the large shapes set off allocates a little of
			// its own; the next class up is never within 1 %.
			class := float64(tc.class)
			if tc.size < 16 && !tinyPacked {
				class = 16
			}
			if got := allocBytes(50, func() { layoutSink = BuildTTLAt(old, tc.puts, version, worker, tc.expiry) }); got < class || got > class*1.01 {
				t.Errorf("one build allocates %.1f bytes, want the %d-byte class", got, tc.class)
			}
			if v.Version() != version || v.Worker() != worker || v.ExpiresAt() != tc.expiry {
				t.Errorf("version/worker/expiry = %d/%d/%d, want %d/%d/%d",
					v.Version(), v.Worker(), v.ExpiresAt(), version, worker, tc.expiry)
			}
			want := plain{}
			if old != nil {
				want.cols = old.Cols()
			}
			if !slices.EqualFunc(v.Cols(), want.build(tc.puts, 0, 0, 0).cols, bytes.Equal) {
				t.Fatal("the columns are not what the puts leave behind")
			}
		})
	}
}

// TestTinyCompactValues builds 1x0 values in a row: 8 bytes each, the
// smallest allocation the layout makes, which the tiny allocator packs two to
// a 16-byte block. Under -race the runtime instead ends each one at the end
// of its own block so that checkptr sees past it: every accessor's head() is
// checked against the value's allocation, and one that reads the general
// form's 13-byte header from an 8-byte value throws. The declared type must
// fit inside the same 8 bytes.
func TestTinyCompactValues(t *testing.T) {
	if size := unsafe.Sizeof(Value{}); size > 8 {
		t.Fatalf("the declared Value is %d bytes, more than the smallest value's 8", size)
	}
	vals := make([]*Value, 4096)
	for i := range vals {
		vals[i] = BuildAt(nil, []ColPut{{Col: 0}}, uint64(i+1), uint32(i%256))
	}
	for i, v := range vals {
		if v.Version() != uint64(i+1) || v.Worker() != uint32(i%256) || v.NumCols() != 1 || v.Size() != 8 ||
			v.Col(0) != nil || v.ExpiresAt() != 0 {
			t.Fatalf("value %d: version %d, worker %d, %d columns, size %d, Col(0) %q, expiry %d",
				i, v.Version(), v.Worker(), v.NumCols(), v.Size(), v.Col(0), v.ExpiresAt())
		}
	}
}

// TestUnrepresentablePanics: the header's fields are narrower than the
// builders' parameters, and a figure that does not fit is refused with a
// message, never stored truncated.
func TestUnrepresentablePanics(t *testing.T) {
	for name, build := range map[string]func(){
		"worker": func() { BuildAt(nil, nil, 1, MaxWorker+1) },
		// Column 65 535 would make 65 536 columns, one more than the u16
		// count of the header, the log, the checkpoint and the wire holds.
		"column": func() { BuildAt(nil, []ColPut{{Col: MaxCol + 1, Data: []byte("z")}}, 1, 0) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if msg := fmt.Sprint(recover()); len(msg) < 7 || msg[:7] != "value: " {
					t.Fatalf("recovered %q, want a value: message", msg)
				}
			}()
			build()
		})
	}
	// The largest legal figures are stored exactly.
	v := BuildAt(nil, []ColPut{{Col: MaxCol, Data: []byte("z")}}, 1, MaxWorker)
	if v.Worker() != MaxWorker || v.NumCols() != MaxCol+1 || string(v.Col(MaxCol)) != "z" {
		t.Fatalf("worker %d, %d columns, last %q", v.Worker(), v.NumCols(), v.Col(MaxCol))
	}
}
