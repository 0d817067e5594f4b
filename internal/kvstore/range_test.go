package kvstore

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/value"
)

// TestGetRangeIntoMatchesGetRange checks the arena-based range path returns
// exactly what the allocating path returns, and that earlier windows stay
// valid as later ranges append into the same scratch (subslices of a grown
// arena keep aliasing the old backing memory, which is never rewritten).
func TestGetRangeIntoMatchesGetRange(t *testing.T) {
	s, err := Open(Config{MaintainEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("range-key-%05d", i))
		s.Put(0, k, []value.ColPut{
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
		windows = append(windows, s.GetRangeInto([]byte(c.start), c.n, c.cols, &sc))
	}
	for ci, c := range cases {
		want := s.GetRange([]byte(c.start), c.n, c.cols)
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

// TestRangeMatchesSortedModel compares GetRangeInto and GetRange with a
// sorted slice: random keys of length 0–24 (trailing NULs, lengths straddling
// the 8- and 16-byte slice boundaries, shared 8- and 16-byte prefixes), start
// keys that are nil, empty, present, absent or beyond the last key, random n.
// A copied scratch must fill itself, not the scratch it was copied from.
func TestRangeMatchesSortedModel(t *testing.T) {
	s, err := Open(Config{MaintainEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
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
	set := map[string]bool{}
	for i := 0; i < 1500; i++ {
		k := randKey()
		s.PutSimple(0, k, k)
		set[string(k)] = true
	}
	model := make([]string, 0, len(set))
	for k := range set {
		model = append(model, k)
	}
	sort.Strings(model)

	sc := new(RangeScratch)
	for i := 0; i < 400; i++ {
		var start []byte
		switch rng.Intn(6) {
		case 0: // nil
		case 1:
			start = []byte{}
		case 2:
			start = []byte(model[rng.Intn(len(model))])
		case 3:
			start = []byte("\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff")
		default:
			start = randKey()
		}
		n := rng.Intn(40)
		lo := sort.SearchStrings(model, string(start))
		want := model[lo:min(lo+n, len(model))]
		if i%16 == 0 {
			sc.Reset()
		}
		if i == 200 {
			cp := *sc
			sc = &cp
		}
		for name, got := range map[string][]Pair{
			"GetRangeInto": s.GetRangeInto(start, n, nil, sc),
			"GetRange":     s.GetRange(start, n, nil),
		} {
			if len(got) != len(want) {
				t.Fatalf("%s(%q, %d): %d pairs, want %d", name, start, n, len(got), len(want))
			}
			for j, p := range got {
				if string(p.Key) != want[j] || len(p.Cols) != 1 || string(p.Cols[0]) != want[j] {
					t.Fatalf("%s(%q, %d) pair %d = %q %q, want %q", name, start, n, j, p.Key, p.Cols, want[j])
				}
			}
		}
	}
}
