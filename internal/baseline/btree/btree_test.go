package btree

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/value"
)

func modes() map[string]func() *Tree {
	return map[string]func() *Tree{
		"plain":    func() *Tree { return New() },
		"permuter": func() *Tree { return New(WithPermuter()) },
	}
}

// TestKeyCompare drives the node's comparison: a probe and its lead against
// a stored key's lead and bkey slot.
func TestKeyCompare(t *testing.T) {
	cases := []struct {
		stored, probe string
		want          int // sign of compare(probe, stored)
	}{
		{"abc", "abc", 0},
		{"abc", "abd", 1},
		{"abc", "abb", -1},
		{"abc", "ab", -1},
		{"abc", "abcd", 1},
		{strings.Repeat("x", 20), strings.Repeat("x", 20), 0},
		{strings.Repeat("x", 20), strings.Repeat("x", 20) + "y", 1},
		{strings.Repeat("x", 20) + "y", strings.Repeat("x", 20), -1},
		{strings.Repeat("x", 16), strings.Repeat("x", 17), 1},
		{strings.Repeat("x", 17), strings.Repeat("x", 16), -1},
		{strings.Repeat("x", 16), strings.Repeat("x", 16), 0},
		{"", "", 0},
		{"", "a", 1},
		// Equal leads: the bkey decides.
		{"a", "a\x00", 1},
		{"a\x00", "a", -1},
		{"abcdefgh", "abcdefgh\x00", 1},
		{"abcdefghZ", "abcdefghAAAAAAAA", -1},
		{"abcdefgh1", "abcdefgh1xxxxxxx", 1},
		{"abcdefgh1xxxxxxx", "abcdefgh1", -1},
		{"0123456789abcdef", "0123456789abcdef!", 1},
		{"0123456789abcdefg", "0123456789abcdeg", 1},
	}
	for _, c := range cases {
		probe := []byte(c.probe)
		kl, sl := leadOf(probe), leadOf([]byte(c.stored))
		var sk atomic.Pointer[bkey]
		sk.Store(makeKey([]byte(c.stored)))
		got := compare(kl, probe, sl, &sk)
		if sign(got) != c.want {
			t.Errorf("compare(%q, stored %q) = %d, want sign %d", c.probe, c.stored, got, c.want)
		}
		// Unequal leads decide without loading the bkey.
		if kl != sl {
			var empty atomic.Pointer[bkey]
			if got := compare(kl, probe, sl, &empty); sign(got) != c.want {
				t.Errorf("compare(%q, stored %q) with no bkey = %d, want sign %d", c.probe, c.stored, got, c.want)
			}
		}
	}
}

// TestBkeySize pins bkey to the 48 B size class: its lead lives in the node.
func TestBkeySize(t *testing.T) {
	if got := unsafe.Sizeof(bkey{}); got != 48 {
		t.Fatalf("unsafe.Sizeof(bkey{}) = %d, want 48", got)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestModel(t *testing.T) {
	for name, mk := range modes() {
		t.Run(name, func(t *testing.T) {
			tr := mk()
			model := map[string]string{}
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < 10000; i++ {
				// Mix short keys, >16-byte keys (inline overflow) and
				// 9-16-byte keys that share one lead, so the inline
				// bytes decide every comparison among them.
				var k string
				switch rng.Intn(3) {
				case 0:
					k = fmt.Sprintf("%d", rng.Intn(3000))
				case 1:
					k = fmt.Sprintf("long-key-prefix-%08d", rng.Intn(3000))
				case 2:
					k = fmt.Sprintf("samelead%0*d", 1+rng.Intn(8), rng.Intn(3000))
				}
				switch rng.Intn(3) {
				case 0, 1:
					v := fmt.Sprintf("v%d", i)
					replaced := tr.Put([]byte(k), value.New([]byte(v)))
					if _, had := model[k]; had != replaced {
						t.Fatalf("op %d: put %q replaced=%v want %v", i, k, replaced, had)
					}
					model[k] = v
				case 2:
					v, ok := tr.Get([]byte(k))
					want, wantOK := model[k]
					if ok != wantOK || (ok && string(v.Col(0)) != want) {
						t.Fatalf("op %d: get %q = %v,%v want %q,%v", i, k, v, ok, want, wantOK)
					}
				}
				if tr.Len() != len(model) {
					t.Fatalf("op %d: len %d vs %d", i, tr.Len(), len(model))
				}
			}
			for k, v := range model {
				got, ok := tr.Get([]byte(k))
				if !ok || string(got.Col(0)) != v {
					t.Fatalf("final: %q = %v,%v want %q", k, got, ok, v)
				}
			}
		})
	}
}

func TestSequentialAndReverse(t *testing.T) {
	for name, mk := range modes() {
		t.Run(name, func(t *testing.T) {
			tr := mk()
			const n = 3000
			for i := 0; i < n; i++ {
				k := []byte(fmt.Sprintf("s%06d", i))
				tr.Put(k, value.New(k))
			}
			for i := n - 1; i >= 0; i-- {
				k := []byte(fmt.Sprintf("r%06d", i))
				tr.Put(k, value.New(k))
			}
			for i := 0; i < n; i++ {
				for _, p := range []string{"s", "r"} {
					k := []byte(fmt.Sprintf("%s%06d", p, i))
					if v, ok := tr.Get(k); !ok || string(v.Col(0)) != string(k) {
						t.Fatalf("lost %q", k)
					}
				}
			}
		})
	}
}

func TestConcurrent(t *testing.T) {
	for name, mk := range modes() {
		t.Run(name, func(t *testing.T) {
			tr := mk()
			var wg sync.WaitGroup
			const workers, per = 4, 4000
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						k := []byte(fmt.Sprintf("w%d-%05d", w, i))
						tr.Put(k, value.New(k))
					}
				}(w)
			}
			// Concurrent readers over a prepopulated stable range.
			for i := 0; i < 500; i++ {
				k := []byte(fmt.Sprintf("stable%04d", i))
				tr.Put(k, value.New(k))
			}
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 20000; i++ {
						k := []byte(fmt.Sprintf("stable%04d", rng.Intn(500)))
						if v, ok := tr.Get(k); !ok || string(v.Col(0)) != string(k) {
							panic(fmt.Sprintf("lost stable key %q", k))
						}
					}
				}(int64(r))
			}
			wg.Wait()
			for w := 0; w < workers; w++ {
				for i := 0; i < per; i++ {
					k := []byte(fmt.Sprintf("w%d-%05d", w, i))
					if v, ok := tr.Get(k); !ok || string(v.Col(0)) != string(k) {
						t.Fatalf("lost %q", k)
					}
				}
			}
		})
	}
}
