package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/value"
)

// waveTestKeys returns keys of every shape a descent distinguishes — short,
// empty, exactly one slice, slice plus suffix, shared 8-byte prefixes two
// and three layers deep, binary with NULs, two to four long keys to a slice
// (twigs, in layer 0 and in layer 2, their remainders inside the twig and
// out of it) — amid enough filler that layers 0, 1 and 2 each have interior
// nodes.
func waveTestKeys() [][]byte {
	keys := [][]byte{
		{}, []byte("a"), []byte("ab"), []byte("abcdefg"),
		[]byte("exactly8"), []byte("12345678"),
		[]byte("exactly8+suffix"), []byte("a-key-longer-than-eight-bytes"),
		{0}, {0, 0}, []byte("ab\x00"), []byte("ab\x00\x00\x00\x00\x00\x00"),
		[]byte("abcdefgh\x00"), []byte("abcdefgh\x00\x00\x00\x00\x00\x00\x00\x00\x00"),
		[]byte("sharedpf"), []byte("sharedpfsharedpf"), []byte("sharedpfsharedpfsharedpf"),
	}
	for i := 0; i < 400; i++ {
		keys = append(keys,
			[]byte(fmt.Sprintf("%d", i*7919)),
			[]byte(fmt.Sprintf("sharedpf%03d", i)),
			[]byte(fmt.Sprintf("sharedpf%03d-and-a-suffix", i)),
			[]byte(fmt.Sprintf("sharedpfsharedpf%03d", i)),
			[]byte(fmt.Sprintf("sharedpfsharedpf\x00%03d\x00tail-past-the-slice", i)))
	}
	for i := 0; i < 40; i++ {
		for j := 0; j < 2+i%3; j++ {
			keys = append(keys,
				[]byte(fmt.Sprintf("twig%04d%d", i, j)),
				[]byte(fmt.Sprintf("sharedpfsharedpftwig%04d%d-remainder-past-the-twig", i, j)))
		}
	}
	return keys
}

// TestGetBatchMatchesGet is the differential test of the wave against Get,
// the reference: on a quiescent tree a batch of any size and composition —
// hits, misses that part from a hit at every depth, duplicates, any order —
// returns in input order exactly the pointers per-key Get returns.
func TestGetBatchMatchesGet(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(5))
	present := waveTestKeys()
	for _, k := range present {
		tr.Put(k, value.New(k))
	}
	pick := func() []byte {
		k := present[rng.Intn(len(present))]
		switch rng.Intn(6) {
		case 0: // absent: one byte longer (a NUL: same slice, next length)
			return append(bytes.Clone(k), 0)
		case 1: // absent or present: a proper prefix
			return k[:rng.Intn(len(k)+1)]
		case 2: // absent: parts from k in its last byte
			if len(k) == 0 {
				return []byte("miss")
			}
			m := bytes.Clone(k)
			m[len(m)-1] ^= 0x80
			return m
		}
		return k
	}
	var sc BatchScratch // one scratch throughout: every wave starts on stale cursors
	sizes := []int{0, 1, 15, 16, 17, 31, 32, 33, 64, 70}
	var lookups int64
	for round := 0; round < 600; round++ {
		n := rng.Intn(71)
		if round < len(sizes) {
			n = sizes[round]
		}
		batch := make([][]byte, n)
		for i := range batch {
			batch[i] = pick()
		}
		if n > 2 {
			batch[n-1] = batch[0]
		}
		vals := make([]*value.Value, n)
		found := make([]bool, n)
		tr.GetBatchInto(batch, vals, found, &sc)
		for i, k := range batch {
			if wantV, wantOK := tr.Get(k); found[i] != wantOK || vals[i] != wantV {
				t.Fatalf("round %d key %d/%d %q: batch (%p,%v), Get (%p,%v)", round, i, n, k, vals[i], found[i], wantV, wantOK)
			}
		}
		lookups += int64(n)
	}
	// Nothing is writing, so the waves should have done the work themselves.
	// Not none: a layer whose root split is entered through a stale pointer
	// until some Get repairs it, and the wave leaves that to Get.
	if fb := tr.Stats().BatchFallbacks; fb*50 > lookups {
		t.Fatalf("%d of %d lookups on a quiescent tree fell back to Get", fb, lookups)
	}
}

// TestGetBatchFallsBackOnDirtyBorder holds one border node locked and
// marked inserting while a batch reads through it. The wave must not wait
// there: it hands that border's keys to Get (which does the waiting) and
// resolves the rest itself, and the batch returns only after the release.
func TestGetBatchFallsBackOnDirtyBorder(t *testing.T) {
	tr := New()
	var keys [][]byte
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("k%05d", i))
		tr.Put(k, value.New(k))
		keys = append(keys, k)
	}
	// One wave's worth of keys, some on the held border and some to its left.
	held, _ := tr.findBorder(tr.rootHeader(), keySlice(keys[100]))
	first := 100
	for border := held; border == held; first-- {
		border, _ = tr.findBorder(tr.rootHeader(), keySlice(keys[first-1]))
	}
	batch := keys[first-waveWidth/2 : first+waveWidth/2]
	want := int64(0)
	for _, k := range batch {
		if n, _ := tr.findBorder(tr.rootHeader(), keySlice(k)); n == held {
			want++
		}
	}
	if want == 0 || want == int64(len(batch)) {
		t.Fatalf("%d of %d batch keys on the held border; want some, not all", want, len(batch))
	}

	held.h.lock()
	held.h.markInserting()
	var released atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Hold until the batch has reached the slow exit (or, if the wave
		// wrongly spins, until the deadline, so the test fails rather than
		// hangs), then 10 ms more with Get spinning on the border.
		for deadline := time.Now().Add(5 * time.Second); tr.Stats().BatchFallbacks == 0 && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
		}
		time.Sleep(10 * time.Millisecond)
		released.Store(true)
		held.h.unlock()
	}()
	vals, found := tr.GetBatch(batch)
	if !released.Load() {
		t.Fatal("batch returned while the border was still dirty")
	}
	<-done
	for i, k := range batch {
		if !found[i] || !bytes.Equal(vals[i].Bytes(), k) {
			t.Fatalf("key %q: found=%v", k, found[i])
		}
	}
	if got := tr.Stats().BatchFallbacks; got != want {
		t.Fatalf("BatchFallbacks = %d, want %d (the keys on the held border, no others)", got, want)
	}
}

// TestGetBatchLeavesStaleLayerRootToGet splits a layer's root with the last
// insert into it, so the pointer stored in the layer above still leads to
// the old root — now the left half. A wave entering there must notice the
// node is no longer a root and fall back, not search the left half and call
// the right half's keys absent; the Gets it falls back to repair the
// pointer, and the next wave goes straight through.
func TestGetBatchLeavesStaleLayerRootToGet(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ { // layer 0 gets interior nodes of its own
		k := []byte(fmt.Sprintf("f%03d", i))
		tr.Put(k, value.New(k))
	}
	var keys [][]byte
	var before int64
	for i := 0; i <= width; i++ { // one more than a border holds
		k := []byte(fmt.Sprintf("PREFIX00-%02d", i))
		tr.Put(k, value.New(k))
		keys = append(keys, k)
		if i == 0 { // the first key lives in layer 0 and may split a border there
			before = tr.Stats().Splits
		}
	}
	if s := tr.Stats(); s.Splits != before+1 {
		t.Fatalf("%d splits in the layer, want one: its root, by the last insert", s.Splits-before)
	}
	for round := 0; round < 2; round++ {
		vals, found := tr.GetBatch(keys)
		for i, k := range keys {
			if !found[i] || !bytes.Equal(vals[i].Bytes(), k) {
				t.Fatalf("round %d key %q: found=%v", round, k, found[i])
			}
		}
		// Every key of the first wave, none of the second.
		if got := tr.Stats().BatchFallbacks; got != int64(len(keys)) {
			t.Fatalf("round %d: BatchFallbacks = %d, want %d", round, got, len(keys))
		}
	}
}

// TestGetBatchDuringRestructuring runs batched readers against writers that
// split, empty and refill border nodes and create and collapse layers in
// the region the readers read. A key that is never removed must always be
// found, any key found must carry its own value, and over the run the slow
// exit must have been taken (BatchFallbacks) — on one core too, where a
// reader is preempted mid-wave and resumes on nodes that have moved on.
func TestGetBatchDuringRestructuring(t *testing.T) {
	tr := New()
	family := func(i int) []byte {
		switch i % 4 {
		case 0:
			return []byte(fmt.Sprintf("r%04d", i))
		case 1:
			return []byte(fmt.Sprintf("regionpf%04d", i)) // layer 1 under "regionpf"
		case 2:
			return []byte(fmt.Sprintf("regionpfregionpf%04d+suffix", i)) // layer 2
		}
		// Eight keys to a slice and none of them stable: a twig that grows
		// into a layer small enough to stay one border, which is emptied
		// and collapsed.
		return []byte(fmt.Sprintf("coll%04d-%04d", i/32, i))
	}
	const space = 800
	keys := make([][]byte, space)
	for i := range keys {
		keys[i] = family(i)
	}
	// Few enough stable keys that whole borders between them fill and empty.
	stable := func(i int) bool { return i%4 != 3 && i%40 < 3 }
	for i, k := range keys {
		if stable(i) {
			tr.Put(k, value.New(k))
		}
	}
	var stop atomic.Bool
	var readers, writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				// Fill a stretch (splits, new layers), then drain it (node
				// deletions, emptied layers), then collapse what emptied.
				lo := rng.Intn(space - 120)
				for i := lo; i < lo+120; i++ {
					if !stable(i) {
						tr.Put(keys[i], value.New(keys[i]))
					}
				}
				for i := lo; i < lo+120; i++ {
					if !stable(i) {
						tr.Remove(keys[i])
					}
				}
				tr.Maintain()
			}
		}(nextSeed())
	}
	var batches atomic.Int64
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			var sc BatchScratch
			batch := make([][]byte, 40)
			ids := make([]int, len(batch))
			vals := make([]*value.Value, len(batch))
			found := make([]bool, len(batch))
			for !stop.Load() {
				for j := range batch {
					ids[j] = rng.Intn(space)
					batch[j] = keys[ids[j]]
				}
				tr.GetBatchInto(batch, vals, found, &sc)
				for j, k := range batch {
					if found[j] && !bytes.Equal(vals[j].Bytes(), k) {
						t.Errorf("key %q: got the value of %q", k, vals[j].Bytes())
						return
					}
					if !found[j] && stable(ids[j]) {
						t.Errorf("key %q is never removed and was not found", k)
						return
					}
				}
				batches.Add(1)
			}
		}(nextSeed())
	}
	exercised := func(s StatsSnapshot) bool {
		return s.BatchFallbacks > 0 && s.Splits > 0 && s.NodeDeletes > 0 && s.LayerCollapses > 0
	}
	for deadline := time.Now().Add(20 * time.Second); !t.Failed() && time.Now().Before(deadline); {
		if batches.Load() >= 2000 && exercised(tr.Stats()) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	readers.Wait()
	writers.Wait()
	if s := tr.Stats(); !exercised(s) {
		t.Fatalf("after %d batches the run had not exercised every path: %+v", batches.Load(), s)
	}
	tr.Maintain()
	checkInvariants(t, tr)
}

func TestGetBatchEmpty(t *testing.T) {
	tr := New()
	vals, found := tr.GetBatch(nil)
	if len(vals) != 0 || len(found) != 0 {
		t.Fatal("empty batch should return empty results")
	}
}

func TestGetBatchConcurrentWithWrites(t *testing.T) {
	tr := New()
	var stable [][]byte
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("stable%05d", i))
		tr.Put(k, value.New(k))
		stable = append(stable, k)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20000; i++ {
			k := []byte(fmt.Sprintf("churn%05d", i%3000))
			tr.Put(k, value.New(k))
		}
	}()
	for round := 0; round < 20; round++ {
		vals, found := tr.GetBatch(stable)
		for i := range stable {
			if !found[i] || string(vals[i].Bytes()) != string(stable[i]) {
				t.Fatalf("batch lost stable key %q", stable[i])
			}
		}
	}
	<-done
}
