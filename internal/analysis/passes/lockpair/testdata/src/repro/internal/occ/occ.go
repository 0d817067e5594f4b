// Package occ is the lockpair fixture's stand-in for internal/occ: the
// version word whose Lock, Unlock, TryLock and Stable are the node locks.
package occ

type Version struct{ word uint64 }

func (h *Version) Lock()          {}
func (h *Version) Unlock()        {}
func (h *Version) TryLock() bool  { return h.word == 0 }
func (h *Version) Stable() uint64 { return h.word }
