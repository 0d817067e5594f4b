//go:build !linux

package superpage

// Without madvise(MADV_COLLAPSE) the heap stays on the pages the kernel
// faults in.

// Tick does nothing outside Linux.
func Tick() {}

// Collapse does nothing outside Linux.
func Collapse() {}
