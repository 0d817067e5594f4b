package value

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

func TestNilValue(t *testing.T) {
	var v *Value
	if v.Version() != 0 || v.NumCols() != 0 || v.Col(0) != nil || v.Bytes() != nil {
		t.Fatal("nil value accessors should return zero values")
	}
	if v.String() != "<nil>" {
		t.Fatalf("String = %q", v.String())
	}
}

func TestNewAndAccessors(t *testing.T) {
	v := New([]byte("a"), []byte("bb"))
	if v.Version() != 1 {
		t.Fatalf("version = %d", v.Version())
	}
	if v.NumCols() != 2 || string(v.Col(0)) != "a" || string(v.Col(1)) != "bb" {
		t.Fatalf("columns wrong: %v", v)
	}
	if v.Col(2) != nil || v.Col(-1) != nil {
		t.Fatal("out-of-range columns must be nil")
	}
	if string(v.Bytes()) != "a" {
		t.Fatal("Bytes should be column 0")
	}
}

func TestApplyGrowsColumns(t *testing.T) {
	v := New([]byte("a"))
	v2 := Apply(v, []ColPut{{Col: 3, Data: []byte("d")}})
	if v2.NumCols() != 4 {
		t.Fatalf("NumCols = %d, want 4", v2.NumCols())
	}
	if string(v2.Col(0)) != "a" || v2.Col(1) != nil || string(v2.Col(3)) != "d" {
		t.Fatalf("columns wrong: %v", v2)
	}
	if v2.Version() != 2 {
		t.Fatalf("version = %d, want 2", v2.Version())
	}
}

func TestApplyFromNil(t *testing.T) {
	v := Apply(nil, []ColPut{{Col: 0, Data: []byte("x")}})
	if v.Version() != 1 || string(v.Col(0)) != "x" {
		t.Fatalf("apply from nil: %v", v)
	}
}

// TestApplyImmutable checks the COW law (§4.7): applying puts must not
// change the old value, and the new value must not alias the old one or the
// put data (everything is copied into the new packed allocation).
func TestApplyImmutable(t *testing.T) {
	old := New([]byte("a"), []byte("b"), []byte("c"))
	putData := []byte("B")
	nv := Apply(old, []ColPut{{Col: 1, Data: putData}})
	if string(old.Col(1)) != "b" {
		t.Fatal("old value mutated")
	}
	if string(nv.Col(1)) != "B" || string(nv.Col(0)) != "a" || string(nv.Col(2)) != "c" {
		t.Fatalf("new value wrong: %v", nv)
	}
	// The packed value copies: mutating the caller's put data afterwards must
	// not change the published value.
	putData[0] = 'Z'
	if string(nv.Col(1)) != "B" {
		t.Fatal("put data retained instead of copied")
	}
	if &old.Col(0)[0] == &nv.Col(0)[0] {
		t.Fatal("new value aliases old value's allocation")
	}
}

// TestBuildSingleAllocation pins the packed representation's reason for
// existing: building a value costs exactly one allocation regardless of
// column count.
func TestBuildSingleAllocation(t *testing.T) {
	old := New([]byte("aaaa"), []byte("bbbb"), []byte("cccc"))
	puts := []ColPut{{Col: 1, Data: []byte("BBBB")}}
	allocs := testing.AllocsPerRun(200, func() {
		if v := BuildAt(old, puts, 7, 3); v == nil {
			t.Fatal("nil value")
		}
	})
	if allocs != 1 {
		t.Fatalf("BuildAt allocates %.1f times per run, want 1", allocs)
	}
}

// TestBuildAtWorkerTag checks the worker tag round-trips and that a put to a
// later column leaves earlier data intact in the packed layout.
func TestBuildAtWorkerTag(t *testing.T) {
	v := BuildAt(nil, []ColPut{{Col: 0, Data: []byte("x")}}, 42, 5)
	if v.Version() != 42 || v.Worker() != 5 {
		t.Fatalf("version/worker = %d/%d, want 42/5", v.Version(), v.Worker())
	}
	v2 := BuildAt(v, []ColPut{{Col: 2, Data: []byte("zz")}}, 43, 6)
	if string(v2.Col(0)) != "x" || v2.Col(1) != nil || string(v2.Col(2)) != "zz" {
		t.Fatalf("columns wrong: %v", v2)
	}
	if v2.Worker() != 6 {
		t.Fatalf("worker = %d, want 6", v2.Worker())
	}
	// A duplicate column index in one put list: the last write wins.
	v3 := Apply(nil, []ColPut{{Col: 0, Data: []byte("first")}, {Col: 0, Data: []byte("second")}})
	if string(v3.Col(0)) != "second" {
		t.Fatalf("Col(0) = %q, want last put to win", v3.Col(0))
	}
}

func TestBuildAtVersion(t *testing.T) {
	v := BuildAt(nil, []ColPut{{Col: 0, Data: []byte("x")}}, 42, 0)
	if v.Version() != 42 {
		t.Fatalf("version = %d, want 42", v.Version())
	}
}

func TestNewAt(t *testing.T) {
	v := NewAt(7, []byte("x"))
	if v.Version() != 7 {
		t.Fatalf("version = %d", v.Version())
	}
}

func TestEqual(t *testing.T) {
	a := New([]byte("x"), []byte("y"))
	b := NewAt(9, []byte("x"), []byte("y"))
	if !Equal(a, b) {
		t.Fatal("values with same columns should be Equal regardless of version")
	}
	c := New([]byte("x"))
	if Equal(a, c) {
		t.Fatal("different widths must not be Equal")
	}
	d := New([]byte("x"), []byte("z"))
	if Equal(a, d) {
		t.Fatal("different columns must not be Equal")
	}
}

func TestApplyNegativeColPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative column")
		}
	}()
	Apply(nil, []ColPut{{Col: -1, Data: nil}})
}

// TestApplyQuick: after any sequence of Applies, the columns are what the
// reference model's column put leaves behind, and versions strictly
// increase.
func TestApplyQuick(t *testing.T) {
	type op struct {
		Col  uint8
		Data []byte
	}
	f := func(ops []op) bool {
		var v *Value
		var want [][]byte
		for _, o := range ops {
			p, prevVer := ColPut{Col: int(o.Col % 8), Data: o.Data}, v.Version()
			v, want = Apply(v, []ColPut{p}), model.Apply(want, []model.ColPut{model.ColPut(p)})
			if v.Version() != prevVer+1 || !slices.EqualFunc(v.Cols(), want, bytes.Equal) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestLongPutListMatchesShort: a put list too long to probe per column is
// laid out by column first; the value it builds — a repeated column's last
// put winning, old's untouched columns surviving — is the one the same puts
// build one at a time.
func TestLongPutListMatchesShort(t *testing.T) {
	old := New([]byte("o0"), nil, []byte("o2"), []byte("o3"))
	var puts []ColPut
	for i := 0; i < 40; i++ {
		puts = append(puts, ColPut{Col: (i*7 + 2) % 23, Data: []byte{byte(i)}})
	}
	want := old
	for _, p := range puts {
		want = Apply(want, []ColPut{p})
	}
	got := BuildTTLAt(old, puts, 9, 3, 77)
	if !Equal(got, want) || got.Version() != 9 || got.Worker() != 3 || got.ExpiresAt() != 77 {
		t.Fatalf("long list built %v (version %d, worker %d, expiry %d), want %v at 9, 3, 77",
			got, got.Version(), got.Worker(), got.ExpiresAt(), want)
	}
}
