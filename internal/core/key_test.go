package core

import (
	"bytes"
	"testing"
	"testing/quick"
)

// TestKeySliceOrderIsomorphism is the property behind the paper's "+IntCmp"
// trick (§4.2): comparing big-endian slice integers plus the within-slice
// ordinal must equal lexicographic byte comparison, for any binary keys.
func TestKeySliceOrderIsomorphism(t *testing.T) {
	f := func(a, b []byte) bool {
		if len(a) > 8 {
			a = a[:8] // the property concerns single-slice keys
		}
		if len(b) > 8 {
			b = b[:8]
		}
		want := bytes.Compare(a, b)
		got := cmpKey(keySlice(a), keyOrd(a), keySlice(b), keyOrd(b))
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestKeySliceClassOrder checks that keys longer than 8 bytes (ordinal class
// 9) sort after all keys of the same slice with length <= 8.
func TestKeySliceClassOrder(t *testing.T) {
	short := []byte("ABCDEFGH")  // exactly 8: ordinal 8
	long := []byte("ABCDEFGHxy") // ordinal 9
	if cmpKey(keySlice(short), keyOrd(short), keySlice(long), keyOrd(long)) >= 0 {
		t.Fatal("8-byte key should order before longer key with same slice")
	}
	if keyOrd(long) != 9 {
		t.Fatalf("keyOrd(long) = %d, want 9", keyOrd(long))
	}
}

func TestNulDistinguished(t *testing.T) {
	// "ABCDEFG\x00" (8 bytes) and "ABCDEFG" (7 bytes) share a slice
	// representation; the length must distinguish them (§4.2).
	a := []byte("ABCDEFG\x00")
	b := []byte("ABCDEFG")
	if keySlice(a) != keySlice(b) {
		t.Fatal("padded slices should be equal")
	}
	if keyOrd(a) == keyOrd(b) {
		t.Fatal("ordinals must differ")
	}
	if cmpKey(keySlice(b), keyOrd(b), keySlice(a), keyOrd(a)) >= 0 {
		t.Fatal("shorter key must order first")
	}
}

func TestSliceBytesRoundTrip(t *testing.T) {
	f := func(k []byte) bool {
		if len(k) > 8 {
			k = k[:8]
		}
		got := appendSliceBytes(nil, keySlice(k), len(k))
		return bytes.Equal(got, k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendSliceBytes(t *testing.T) {
	out := appendSliceBytes([]byte("pre"), keySlice([]byte("abc")), 3)
	if !bytes.Equal(out, []byte("preabc")) {
		t.Fatalf("got %q", out)
	}
}

func TestOrdOf(t *testing.T) {
	for kl := uint32(0); kl <= 8; kl++ {
		if ordOf(kl) != int(kl) {
			t.Fatalf("ordOf(%d) = %d", kl, ordOf(kl))
		}
	}
	for _, kl := range []uint32{klSuffix, klLayer, klUnstable} {
		if ordOf(kl) != 9 {
			t.Fatalf("ordOf(%d) = %d, want 9", kl, ordOf(kl))
		}
	}
}
