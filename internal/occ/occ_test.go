package occ

import (
	"sync"
	"testing"
)

func TestBits(t *testing.T) {
	var v Version
	v.Init(BorderBit | RootBit)
	s := v.Load()
	if !Border(s) || !Root(s) || Locked(s) {
		t.Fatalf("bits wrong: %#x", s)
	}
	v.Lock()
	if !Locked(v.Load()) {
		t.Fatal("not locked")
	}
	v.Unlock()
	if Locked(v.Load()) {
		t.Fatal("unlock wrong")
	}
	v.Lock()
	v.MarkDeleted()
	v.ClearRoot()
	v.Unlock()
	if s := v.Load(); !Deleted(s) || Root(s) || !Border(s) {
		t.Fatalf("deleted/root bits wrong: %#x", s)
	}
}

func TestCounters(t *testing.T) {
	var v Version
	v0 := v.Load()
	v.Lock()
	v.Unlock()
	if Changed(v0, v.Load()) {
		t.Fatal("clean lock/unlock changed version")
	}
	v.Lock()
	v.MarkInserting()
	v.Unlock()
	v1 := v.Load()
	if !Changed(v0, v1) {
		t.Fatal("vinsert bump not visible")
	}
	if VSplit(v1) != VSplit(v0) {
		t.Fatal("vinsert leaked into vsplit")
	}
	v.Lock()
	v.MarkSplitting()
	v.Unlock()
	if VSplit(v.Load()) == VSplit(v1) {
		t.Fatal("vsplit not bumped")
	}
}

func TestLockUnlockCounters(t *testing.T) {
	var h Version
	h.Init(BorderBit)

	v0 := h.Load()
	h.Lock()
	if !Locked(h.Load()) {
		t.Fatal("not locked")
	}
	h.Unlock()
	if Changed(v0, h.Load()) {
		t.Fatal("plain lock/unlock must not change the version")
	}

	h.Lock()
	h.MarkInserting()
	h.Unlock()
	v1 := h.Load()
	if v1&vinsertMask != v0&vinsertMask+vinsertOne {
		t.Fatal("vinsert not incremented")
	}
	if Dirty(v1) || Locked(v1) {
		t.Fatal("dirty/lock bits not cleared")
	}

	h.Lock()
	h.MarkSplitting()
	h.Unlock()
	v2 := h.Load()
	if VSplit(v2) != VSplit(v1)+vsplitOne {
		t.Fatal("vsplit not incremented")
	}

	// Splitting takes precedence when both dirty bits are set.
	h.Lock()
	h.MarkInserting()
	h.MarkSplitting()
	h.Unlock()
	v3 := h.Load()
	if VSplit(v3) != VSplit(v2)+vsplitOne || v3&vinsertMask != v2&vinsertMask {
		t.Fatal("splitting should win over inserting")
	}
}

func TestVinsertWrapStaysInField(t *testing.T) {
	var h Version
	// Set vinsert to its maximum; the increment must not carry into vsplit.
	h.Init(vinsertMask)
	h.Lock()
	h.MarkInserting()
	h.Unlock()
	v := h.Load()
	if v&vinsertMask != 0 {
		t.Fatalf("vinsert should wrap to 0, got %#x", v&vinsertMask)
	}
	if VSplit(v) != 0 {
		t.Fatalf("vinsert wrap leaked into vsplit: %#x", VSplit(v))
	}
}

func TestChanged(t *testing.T) {
	v := BorderBit | RootBit
	if Changed(v, v|LockBit) {
		t.Fatal("lock bit alone is not a change")
	}
	if !Changed(v, v|insertingBit) {
		t.Fatal("inserting bit is a change")
	}
	if !Changed(v, v+vsplitOne) {
		t.Fatal("vsplit increment is a change")
	}
}

func TestStableSpinsOnDirty(t *testing.T) {
	var h Version
	h.Init(BorderBit)
	h.Lock()
	h.MarkInserting()
	done := make(chan uint64)
	go func() { done <- h.Stable() }()
	h.Unlock()
	if Dirty(<-done) {
		t.Fatal("stable returned a dirty version")
	}
}

func TestStableWaitsForDirty(t *testing.T) {
	var v Version
	v.Lock()
	v.MarkSplitting()
	done := make(chan uint64)
	go func() { done <- v.Stable() }()
	v.Unlock()
	if Dirty(<-done) {
		t.Fatal("stable returned dirty")
	}
}

func TestTryLock(t *testing.T) {
	var h Version
	if !h.TryLock() {
		t.Fatal("TryLock on unlocked node failed")
	}
	if h.TryLock() {
		t.Fatal("TryLock on locked node succeeded")
	}
	h.Unlock()
	if !h.TryLock() {
		t.Fatal("TryLock after unlock failed")
	}
	h.Unlock()
}

func TestMutualExclusion(t *testing.T) {
	var v Version
	counter := 0
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				v.Lock()
				counter++
				v.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != 16000 {
		t.Fatalf("counter %d: lock not mutually exclusive", counter)
	}
}
