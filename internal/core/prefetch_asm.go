//go:build amd64 || arm64

package core

import "unsafe"

// prefetchNode asks the memory system for the five cache lines at p, p+64,
// … p+256 (PREFETCHT0 on amd64, PRFM PLDL1KEEP on arm64) and returns without
// waiting for them. Five lines cover either node type: a border node is
// 312 B in the 64-byte-aligned 320 B size class, exactly those five; an
// interior node is 272 B in the 288 B class, so it starts at 0 or 32 mod 64
// and ends inside the line p+256 falls in. A prefetch never faults, so the
// bytes past a node's end that the last line drags in are harmless.
//
//go:noescape
func prefetchNode(p unsafe.Pointer)

// prefetchLine asks for the one line holding p: the head of a suffix bag or
// of a packed value.
//
//go:noescape
func prefetchLine(p unsafe.Pointer)
