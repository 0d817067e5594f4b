package occ

import (
	"sync"
	"testing"
)

// Locked reports the lock bit; only these tests read it.
func Locked(v uint64) bool { return v&LockBit != 0 }

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

func TestStableWaitsForDirty(t *testing.T) {
	var v Version
	v.Lock()
	v.MarkSplitting()
	done := make(chan uint64)
	go func() { done <- v.Stable() }()
	v.Unlock()
	if s := <-done; s&DirtyMask != 0 {
		t.Fatal("stable returned dirty")
	}
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
