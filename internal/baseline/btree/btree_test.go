package btree

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/baseline/conformance"
	"repro/internal/value"
)

func modes() map[string]func() conformance.Store {
	return map[string]func() conformance.Store{
		"plain":    func() conformance.Store { return New() },
		"permuter": func() conformance.Store { return New(WithPermuter()) },
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
		t.Run(name, func(t *testing.T) { conformance.Model(t, mk) })
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
		t.Run(name, func(t *testing.T) { conformance.Concurrent(t, mk) })
	}
}
