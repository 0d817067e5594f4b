package core

import (
	"testing"
	"unsafe"
)

// TestHeaderLayout guards the unsafe conversions between *nodeHeader and the
// concrete node types: the header must be the first field of both.
func TestHeaderLayout(t *testing.T) {
	if off := unsafe.Offsetof(borderNode{}.h); off != 0 {
		t.Fatalf("borderNode header offset = %d", off)
	}
	if off := unsafe.Offsetof(interiorNode{}.h); off != 0 {
		t.Fatalf("interiorNode header offset = %d", off)
	}
	b := newBorder(true, false)
	if b.h.border() != b {
		t.Fatal("border round trip failed")
	}
	in := newInterior(0)
	if in.h.interior() != in {
		t.Fatal("interior round trip failed")
	}
	if !isBorder(b.h.version.Load()) || isBorder(in.h.version.Load()) {
		t.Fatal("isborder bit wrong")
	}
	if !isRoot(b.h.version.Load()) {
		t.Fatal("root bit not set")
	}
}

func TestLockUnlockCounters(t *testing.T) {
	var h nodeHeader
	h.version.Store(borderBit)

	v0 := h.version.Load()
	h.lock()
	if !isLocked(h.version.Load()) {
		t.Fatal("not locked")
	}
	h.unlock()
	if changed(v0, h.version.Load()) {
		t.Fatal("plain lock/unlock must not change the version")
	}

	h.lock()
	h.markInserting()
	h.unlock()
	v1 := h.version.Load()
	if v1&vinsertMask != v0&vinsertMask+vinsertOne {
		t.Fatal("vinsert not incremented")
	}
	if isDirty(v1) || isLocked(v1) {
		t.Fatal("dirty/lock bits not cleared")
	}

	h.lock()
	h.markSplitting()
	h.unlock()
	v2 := h.version.Load()
	if vsplit(v2) != vsplit(v1)+vsplitOne {
		t.Fatal("vsplit not incremented")
	}

	// Splitting takes precedence when both dirty bits are set.
	h.lock()
	h.markInserting()
	h.markSplitting()
	h.unlock()
	v3 := h.version.Load()
	if vsplit(v3) != vsplit(v2)+vsplitOne || v3&vinsertMask != v2&vinsertMask {
		t.Fatal("splitting should win over inserting")
	}
}

func TestVinsertWrapStaysInField(t *testing.T) {
	var h nodeHeader
	// Set vinsert to its maximum; the increment must not carry into vsplit.
	h.version.Store(vinsertMask)
	h.lock()
	h.markInserting()
	h.unlock()
	v := h.version.Load()
	if v&vinsertMask != 0 {
		t.Fatalf("vinsert should wrap to 0, got %#x", v&vinsertMask)
	}
	if vsplit(v) != 0 {
		t.Fatalf("vinsert wrap leaked into vsplit: %#x", vsplit(v))
	}
}

func TestChanged(t *testing.T) {
	v := borderBit | rootBit
	if changed(v, v|lockBit) {
		t.Fatal("lock bit alone is not a change")
	}
	if !changed(v, v|insertingBit) {
		t.Fatal("inserting bit is a change")
	}
	if !changed(v, v+vsplitOne) {
		t.Fatal("vsplit increment is a change")
	}
}

func TestStableSpinsOnDirty(t *testing.T) {
	var h nodeHeader
	h.version.Store(borderBit)
	h.lock()
	h.markInserting()
	done := make(chan uint64)
	go func() { done <- h.stable() }()
	h.unlock()
	v := <-done
	if isDirty(v) {
		t.Fatal("stable returned a dirty version")
	}
}

func TestTryLock(t *testing.T) {
	var h nodeHeader
	if !h.tryLock() {
		t.Fatal("tryLock on unlocked node failed")
	}
	if h.tryLock() {
		t.Fatal("tryLock on locked node succeeded")
	}
	h.unlock()
	if !h.tryLock() {
		t.Fatal("tryLock after unlock failed")
	}
	h.unlock()
}
