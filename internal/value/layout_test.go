package value

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"
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

var layoutSink *Value

func filled(n int) []byte { return bytes.Repeat([]byte{'x'}, n) }

// TestLayout pins the packed size and the Go size class of the shapes the
// layout was cut for, and of each point where a field changes width. The
// class is what a key pays: 22 bytes in the 24-byte class is the point of
// the 13-byte header, and one byte more on ten 4-byte columns would cost
// sixteen.
func TestLayout(t *testing.T) {
	ten := make([]ColPut, 10)
	for i := range ten {
		ten[i] = ColPut{Col: i, Data: filled(4)}
	}
	one := func(n int) []ColPut { return []ColPut{{Col: 0, Data: filled(n)}} }
	const ttl = 1 << 62
	for _, tc := range []struct {
		name        string
		old         func() *Value
		puts        []ColPut
		expiry      uint64
		size, class int
	}{
		{name: "1x8", puts: one(8), size: 13 + 1 + 8, class: 24},
		{name: "1x8 TTL", puts: one(8), expiry: ttl, size: 13 + 8 + 1 + 8, class: 32},
		{name: "10x4", puts: ten, size: 13 + 10 + 40, class: 64},
		{name: "10x4 TTL", puts: ten, expiry: ttl, size: 13 + 8 + 10 + 40, class: 80},
		{name: "no columns", size: 13, class: 16},
		{name: "no columns TTL", expiry: ttl, size: 13 + 8, class: 24},
		{name: "1x255: the last 1-byte end", puts: one(255), size: 13 + 1 + 255, class: 288},
		{name: "1x256: the first 2-byte end", puts: one(256), size: 13 + 2 + 256, class: 288},
		{name: "1x65535: the last 2-byte end", puts: one(65535), size: 13 + 2 + 65535, class: 9 * 8192},
		{name: "1x65536: the first 4-byte end", puts: one(65536), size: 13 + 4 + 65536, class: 9 * 8192},
		{name: "touch keeps the columns and adds an expiry",
			old: func() *Value { return BuildAt(nil, ten, 1, 0) }, expiry: ttl, size: 13 + 8 + 10 + 40, class: 80},
		{name: "touch to never drops the expiry again",
			old: func() *Value { return BuildTTLAt(nil, ten, 1, 0, ttl) }, size: 13 + 10 + 40, class: 64},
		{name: "growth past the width leaves empty columns and widens the ends",
			old: func() *Value { return BuildAt(nil, one(8), 1, 0) }, puts: []ColPut{{Col: 5, Data: filled(250)}},
			size: 13 + 6*2 + 258, class: 288},
		{name: "an overwrite that shrinks the data narrows the ends again",
			old: func() *Value { return BuildAt(nil, one(70000), 1, 0) }, puts: one(8), size: 13 + 1 + 8, class: 24},
		{name: "column 65535 sets the column count's seventeenth bit",
			puts: []ColPut{{Col: 1<<16 - 1, Data: filled(1)}}, size: 13 + 1<<16 + 1, class: 9 * 8192},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var old *Value
			if tc.old != nil {
				old = tc.old()
			}
			v := BuildTTLAt(old, tc.puts, 7, 3, tc.expiry)
			if v.Size() != tc.size {
				t.Errorf("Size = %d, want %d", v.Size(), tc.size)
			}
			// A collection the large shapes set off allocates a little of
			// its own; the next class up is never within 1 %.
			class := float64(tc.class)
			if got := allocBytes(50, func() { layoutSink = BuildTTLAt(old, tc.puts, 7, 3, tc.expiry) }); got < class || got > class*1.01 {
				t.Errorf("one build allocates %.1f bytes, want the %d-byte class", got, tc.class)
			}
			if v.Version() != 7 || v.Worker() != 3 || v.ExpiresAt() != tc.expiry {
				t.Errorf("version/worker/expiry = %d/%d/%d, want 7/3/%d", v.Version(), v.Worker(), v.ExpiresAt(), tc.expiry)
			}
			for i := 0; i < v.NumCols(); i++ {
				want, put := putFor(tc.puts, nil, i)
				if !put {
					want = old.Col(i)
				}
				if !bytes.Equal(v.Col(i), want) {
					t.Fatalf("Col(%d) is %d bytes, want %d", i, len(v.Col(i)), len(want))
				}
			}
		})
	}
}

// TestUnrepresentablePanics: the header's fields are narrower than the
// builders' parameters, and a figure that does not fit is refused with a
// message, never stored truncated.
func TestUnrepresentablePanics(t *testing.T) {
	for name, build := range map[string]func(){
		"worker": func() { BuildAt(nil, nil, 1, MaxWorker+1) },
		"column": func() { BuildAt(nil, []ColPut{{Col: maxCols}}, 1, 0) },
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
	v := BuildAt(nil, []ColPut{{Col: maxCols - 1, Data: []byte("z")}}, 1, MaxWorker)
	if v.Worker() != MaxWorker || v.NumCols() != maxCols || string(v.Col(maxCols-1)) != "z" {
		t.Fatalf("worker %d, %d columns, last %q", v.Worker(), v.NumCols(), v.Col(maxCols-1))
	}
}
