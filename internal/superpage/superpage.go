// Package superpage moves this process's Go heap onto 2 MiB pages as it
// grows: the paper's +Superpage step (§6.2), which Go's allocator cannot
// take by mapping superpages itself (DESIGN.md substitution #1).
//
// A pass reads /proc/self/maps. In every private anonymous read-write
// mapping no larger than the runtime's mapped memory, it asks the kernel to
// collapse each 2 MiB-aligned chunk that mincore finds at least half
// resident onto one superpage (madvise MADV_COLLAPSE, Linux 6.1 and later).
// A collapse fills in the pages a chunk is missing, so the residency gate
// bounds what it can add to the resident set: a reserve the heap has barely
// touched, or a chunk the scavenger has mostly released, is left alone.
// The pass never asks for MADV_HUGEPAGE, so no mapping becomes khugepaged's
// to fill in the background, and it changes no system setting: it acts on
// this process's own pages, one synchronous call at a time.
//
// Tick, which the store's maintenance loop calls, runs a pass only once the
// runtime's mapped memory (/memory/classes/total:bytes) has grown by Step
// since the last pass, so a steady heap costs one metrics read. Collapse
// runs a pass now. Passes are process-wide and serialized. Outside Linux
// both do nothing.
package superpage

import "sync/atomic"

// Step is the growth in the runtime's mapped memory that arms Tick's next
// pass: small enough that a load or a restore is covered within a tick or
// two of its growth, large enough that a pass, which visits every chunk of
// the heap, comes once per 16 new chunks.
const Step = 32 << 20

// The process-wide counters the store's stats report.
var (
	collapsed atomic.Uint64 // bytes of the chunks counted by Bytes
	refused   atomic.Uint64 // chunks whose collapse the kernel refused
	passes    atomic.Uint64 // passes run
)

// Bytes reports the bytes the passes have moved onto superpages: a chunk
// counts when its collapse succeeds, unless the previous pass collapsed it
// too and no page of it has been released since.
func Bytes() uint64 { return collapsed.Load() }

// Refusals reports the chunks whose collapse the machine refused: EAGAIN or
// ENOMEM when it had no free 2 MiB page, EBUSY when it could not move a
// page. A chunk refused is tried again on the next pass. A mapping that
// refuses superpages by its flags — EINVAL, on a mapping marked
// MADV_NOHUGEPAGE or on any before Linux 6.1 — is not a refusal: the pass
// counts nothing for it and visits no more of its chunks.
func Refusals() uint64 { return refused.Load() }

// Passes reports the passes run in this process.
func Passes() uint64 { return passes.Load() }
