//go:build !amd64 && !arm64

package core

import "unsafe"

// Without an assembly stub for the architecture the wave still interleaves
// its descents; it only cannot start their fetches early.

func prefetchNode(unsafe.Pointer) {}
func prefetchLine(unsafe.Pointer) {}
