package kvstore

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/clock"
	"repro/internal/model"
	"repro/internal/value"
)

// TestGetRangeIntoMatchesGetRange checks that ranges appended into one
// reused scratch return exactly what each returns into a fresh scratch, and
// that earlier windows stay valid as later ranges append into the same
// scratch (subslices of a grown arena keep aliasing the old backing memory,
// which is never rewritten).
func TestGetRangeIntoMatchesGetRange(t *testing.T) {
	ss := openAt(t, Config{}, clock.NewFake()).Session(0)
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("range-key-%05d", i))
		ss.Put(k, []value.ColPut{
			{Col: 0, Data: []byte(fmt.Sprintf("v%d", i))},
			{Col: 1, Data: []byte(fmt.Sprintf("c1-%d", i))},
		})
	}

	var sc RangeScratch
	cases := []struct {
		start string
		n     int
		cols  []int
	}{
		{"range-key-00000", 10, nil},
		{"range-key-00050", 25, []int{0}},
		{"range-key-00190", 100, []int{1, 0}},
		{"zzz", 5, nil},
	}
	var windows [][]Pair
	for _, c := range cases {
		windows = append(windows, ss.GetRangeInto([]byte(c.start), c.n, c.cols, &sc))
	}
	for ci, c := range cases {
		want := ss.GetRangeInto([]byte(c.start), c.n, c.cols, new(RangeScratch))
		got := windows[ci]
		if len(got) != len(want) {
			t.Fatalf("case %d: %d pairs, want %d", ci, len(got), len(want))
		}
		for i := range want {
			if string(got[i].Key) != string(want[i].Key) {
				t.Fatalf("case %d pair %d: key %q vs %q", ci, i, got[i].Key, want[i].Key)
			}
			if len(got[i].Cols) != len(want[i].Cols) {
				t.Fatalf("case %d pair %d: %d cols vs %d", ci, i, len(got[i].Cols), len(want[i].Cols))
			}
			for j := range want[i].Cols {
				if string(got[i].Cols[j]) != string(want[i].Cols[j]) {
					t.Fatalf("case %d pair %d col %d: %q vs %q", ci, i, j, got[i].Cols[j], want[i].Cols[j])
				}
			}
		}
	}
}

// TestRangeMatchesSortedModel compares GetRangeInto, into a reused scratch
// and into a fresh one, with the reference model's Range: random keys of
// length 0–24 (trailing NULs, lengths straddling the 8- and 16-byte slice
// boundaries, shared 8- and 16-byte prefixes), start keys that are nil,
// empty, present, absent or beyond the last key, random n. A copied scratch
// must fill itself, not the scratch it was copied from.
func TestRangeMatchesSortedModel(t *testing.T) {
	ss := openAt(t, Config{}, clock.NewFake()).Session(0)
	rng := rand.New(rand.NewSource(1))
	randKey := func() []byte {
		stems := []string{"", "", "prefix08", "prefix08prefix16", "prefix08\x00\x00\x00\x00\x00\x00\x00\x00"}
		stem := stems[rng.Intn(len(stems))]
		k := make([]byte, rng.Intn(25-len(stem)))
		for i := range k {
			k[i] = "\x00\x00ab\xff"[rng.Intn(5)]
		}
		return append([]byte(stem), k...)
	}
	m := model.New()
	for i := 0; i < 1500; i++ {
		k := randKey()
		m.Put(string(k), ss.PutSimple(k, k), 0, model.ColPut{Data: k})
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	keys := m.Range("", m.Len(), 0)

	sc := new(RangeScratch)
	for i := 0; i < 400; i++ {
		var start []byte
		switch rng.Intn(6) {
		case 0: // nil
		case 1:
			start = []byte{}
		case 2:
			start = []byte(keys[rng.Intn(len(keys))].Key)
		case 3:
			start = []byte("\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff")
		default:
			start = randKey()
		}
		n := rng.Intn(40)
		want := m.Range(string(start), n, 0)
		if i%16 == 0 {
			sc.Reset()
		}
		if i == 200 {
			cp := *sc
			sc = &cp
		}
		for name, got := range map[string][]Pair{
			"GetRangeInto":               ss.GetRangeInto(start, n, nil, sc),
			"GetRangeInto/fresh scratch": ss.GetRangeInto(start, n, nil, new(RangeScratch)),
		} {
			if len(got) != len(want) {
				t.Fatalf("%s(%q, %d): %d pairs, want %d", name, start, n, len(got), len(want))
			}
			for j, p := range got {
				if w := want[j]; string(p.Key) != w.Key || len(p.Cols) != 1 || string(p.Cols[0]) != string(w.Cols[0]) {
					t.Fatalf("%s(%q, %d) pair %d = %q %q, want %q %q", name, start, n, j, p.Key, p.Cols, w.Key, w.Cols)
				}
			}
		}
	}
}
