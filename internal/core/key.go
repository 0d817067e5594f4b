package core

import "encoding/binary"

// Key slices (§4.2). Each trie layer is indexed by an 8-byte slice of the
// key, stored as a big-endian uint64 so that native integer less-than gives
// the same order as lexicographic string comparison ("+IntCmp" in Figure 8).
// Short slices are padded with zero bytes; because NUL is a valid key byte,
// a per-key length distinguishes e.g. "ABCDEFG" from "ABCDEFG\x00".
//
// Within a border node a key is (slice, keylen[, suffix]):
//
//	keylen 0..8       — the remaining key is exactly keylen bytes, all in
//	                    the slice; no suffix.
//	keylen klSuffix   — the remaining key is longer than 8 bytes: slice
//	                    holds the first 8, suffix the rest.
//	keylen klTwig     — lv points to a twig (twig.go): the one to twigCap
//	                    keys longer than 8 bytes that begin with this slice,
//	                    as their remainders past it and a value cell each.
//	keylen klLayer    — lv points to a deeper trie layer holding all keys
//	                    that continue past this slice.
//	keylen klUnstable — the slot's lv is changing kind — suffix key to twig,
//	                    twig to layer; readers must retry (§4.6.3).
//
// For ordering, klSuffix/klTwig/klLayer/klUnstable all occupy the single
// "longer than 8 bytes" position after keylen 8: the invariants guarantee at
// most one such entry per slice. A second long key of a slice does not get a
// slot; it joins the first in a twig, and a fifth turns the twig into a layer.
const (
	klSuffix   uint32 = 9
	klLayer    uint32 = 10
	klUnstable uint32 = 11
	klTwig     uint32 = 12
)

// keySlice returns the leading 8-byte slice of k as a big-endian integer.
func keySlice(k []byte) uint64 {
	if len(k) >= 8 {
		return binary.BigEndian.Uint64(k)
	}
	var buf [8]byte
	copy(buf[:], k)
	return binary.BigEndian.Uint64(buf[:])
}

// keyOrd returns the ordering position of the remaining key k within its
// slice group: its length if <= 8, else 9 (the suffix/twig/layer class).
func keyOrd(k []byte) int {
	if len(k) <= 8 {
		return len(k)
	}
	return 9
}

// ordOf returns the ordering position of a stored keylen value.
func ordOf(kl uint32) int {
	if kl <= 8 {
		return int(kl)
	}
	return 9
}

// appendSliceBytes appends the first n bytes of slice s to dst.
func appendSliceBytes(dst []byte, s uint64, n int) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], s)
	return append(dst, buf[:n]...)
}

// cmpKey compares (s1, o1) to (s2, o2) in tree order: by slice, then by
// ordering position within the slice group.
func cmpKey(s1 uint64, o1 int, s2 uint64, o2 int) int {
	switch {
	case s1 < s2:
		return -1
	case s1 > s2:
		return 1
	case o1 < o2:
		return -1
	case o1 > o2:
		return 1
	}
	return 0
}
