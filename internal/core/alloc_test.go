package core

import (
	"fmt"
	"testing"

	"repro/internal/value"
)

// TestGetAllocFree locks in the read path's zero-allocation guarantee
// (§4.8's cache-craftiness discipline applied to the Go heap: a get must
// not create garbage). Covers inline keys, suffix keys, and keys that
// descend through deeper trie layers.
func TestGetAllocFree(t *testing.T) {
	tree := New()
	keys := [][]byte{
		[]byte("short"),
		[]byte("exactly8"),
		[]byte("a-key-longer-than-eight-bytes"),
		[]byte("prefix-shared-aaaaaaaaaaaaaaaa"),
		[]byte("prefix-shared-bbbbbbbbbbbbbbbb"), // forces a deeper layer
	}
	for i, k := range keys {
		tree.Put(k, value.New([]byte(fmt.Sprintf("val%d", i))))
	}
	for i := 0; i < 1000; i++ { // grow the tree so descents span levels
		tree.Put([]byte(fmt.Sprintf("filler%06d", i)), value.New([]byte("x")))
	}
	missing := []byte("prefix-shared-cccccccccccccccc")

	allocs := testing.AllocsPerRun(200, func() {
		for _, k := range keys {
			if _, ok := tree.Get(k); !ok {
				t.Fatalf("key %q missing", k)
			}
		}
		if _, ok := tree.Get(missing); ok {
			t.Fatal("phantom key")
		}
	})
	if allocs != 0 {
		t.Fatalf("Get allocates %.1f times per run, want 0", allocs)
	}
}

// TestLongKeyInsertAllocs pins what a key longer than 8 bytes costs to
// insert into a node with room: one allocation, the node's new suffix bag
// (remove, the other half of each run, allocates nothing).
func TestLongKeyInsertAllocs(t *testing.T) {
	tree := New()
	v := value.New([]byte("v"))
	for i := 0; i < 5; i++ {
		tree.Put([]byte(fmt.Sprintf("resident-key-%d", i)), v)
	}
	key := []byte("resident-key-3-and-then-some")
	allocs := testing.AllocsPerRun(200, func() {
		if _, replaced := tree.Put(key, v); replaced {
			t.Fatal("key was present")
		}
		if _, ok := tree.Remove(key); !ok {
			t.Fatal("key was absent")
		}
	})
	if allocs > 1 {
		t.Fatalf("inserting a long key allocates %.1f times, want <= 1", allocs)
	}
}

// TestGetBatchIntoAllocFree verifies the batched lookup is allocation-free
// from its first call: the wave's cursors are part of the scratch.
func TestGetBatchIntoAllocFree(t *testing.T) {
	tree := New()
	const n = 64
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("batch-key-%06d", i*37%n))
		tree.Put(keys[i], value.New([]byte("v")))
	}
	vals := make([]*value.Value, n)
	found := make([]bool, n)
	var sc BatchScratch

	allocs := testing.AllocsPerRun(200, func() {
		// 64 is four full groups of the wave; 40 ends in a part of one.
		for _, size := range []int{n, 40} {
			tree.GetBatchInto(keys[:size], vals[:size], found[:size], &sc)
			for i := range found[:size] {
				if !found[i] {
					t.Fatalf("key %d missing", i)
				}
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("GetBatchInto allocates %.1f times per run, want 0", allocs)
	}
}
