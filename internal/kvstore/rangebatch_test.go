package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/model"
	"repro/internal/value"
)

// rangeBatchKeys returns keys of every shape a descent distinguishes — the
// families core's TestGetBatchMatchesGet uses: short, empty, exactly one
// slice, slice plus suffix, shared 8-byte prefixes two and three layers
// deep, binary with NULs, two to four long keys to a slice (twigs, in layer 0
// and in layer 2) — amid enough filler that layers 0, 1 and 2 each have
// interior nodes.
func rangeBatchKeys() [][]byte {
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

func samePairs(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || len(a[i].Cols) != len(b[i].Cols) {
			return false
		}
		for j := range a[i].Cols {
			if !bytes.Equal(a[i].Cols[j], b[i].Cols[j]) {
				return false
			}
		}
	}
	return true
}

// TestGetRangeBatchMatchesGetRange is the differential test of the batched
// scan against GetRangeInto, the reference: on a quiescent store a run of
// any length and composition — starts that are hits, misses beside a hit at
// every depth, proper prefixes, past the last key, duplicates; one, ten or a
// hundred pairs; all columns or a projection — returns window by window
// exactly the pairs the same ranges return asked one at a time.
func TestGetRangeBatchMatchesGetRange(t *testing.T) {
	s := openAt(t, Config{}, clock.NewFake())
	sess := s.Session(0)
	present := rangeBatchKeys()
	for _, k := range present {
		sess.Put(k, []value.ColPut{{Col: 0, Data: k}, {Col: 1, Data: []byte("second")}})
	}
	rng := rand.New(rand.NewSource(25))
	pick := func() []byte {
		k := present[rng.Intn(len(present))]
		switch rng.Intn(7) {
		case 0: // absent: one byte longer (a NUL: same slice, next length)
			return append(bytes.Clone(k), 0)
		case 1: // absent or present: a proper prefix
			return k[:rng.Intn(len(k)+1)]
		case 2: // absent: parts from k in its last byte
			if len(k) == 0 {
				return nil
			}
			m := bytes.Clone(k)
			m[len(m)-1] ^= 0x80
			return m
		case 3: // past the last key
			return []byte("\xff\xff\xff\xff\xff\xff\xff\xff\xff")
		}
		return k
	}
	var batched, single RangeScratch // one of each throughout
	sizes := []int{0, 1, 2, 15, 16, 17, 40}
	for round := 0; round < 300; round++ {
		n := rng.Intn(41)
		if round < len(sizes) {
			n = sizes[round]
		}
		starts, ns, cols := make([][]byte, n), make([]int, n), make([][]int, n)
		for i := range starts {
			starts[i] = pick()
			ns[i] = []int{1, 10, 100, 0}[rng.Intn(4)]
			if rng.Intn(3) == 0 {
				cols[i] = []int{1, 0}
			}
		}
		if n > 2 {
			starts[n-1] = starts[0]
		}
		if round%4 == 0 {
			batched.Reset()
			single.Reset()
		}
		got := sess.GetRangeBatchInto(starts, ns, cols, &batched)
		if len(got) != n {
			t.Fatalf("round %d: %d windows for %d ranges", round, len(got), n)
		}
		for i := range starts {
			want := sess.GetRangeInto(starts[i], ns[i], cols[i], &single)
			if !samePairs(got[i], want) {
				t.Fatalf("round %d range %d/%d (%q, %d, %v): batched %d pairs, alone %d pairs\n%q\n%q",
					round, i, n, starts[i], ns[i], cols[i], len(got[i]), len(want), got[i], want)
			}
		}
	}
}

// TestGetRangeBatchDuringRestructuring runs batched scans against two
// writers that split, empty and refill border nodes and create and collapse
// layers in the region scanned. What a scan promises under writers
// (DESIGN.md, "what the version validates for a scan") must hold for every
// window: keys strictly ascending — so no duplicates — each carrying its own
// value, and every never-removed key between the first and last pair
// present.
func TestGetRangeBatchDuringRestructuring(t *testing.T) {
	s := openAt(t, Config{}, clock.NewFake())
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
	stable := func(i int) bool { return i%4 != 3 && i%40 < 3 }
	stableKeys := model.New()
	load := sessions(s, 1)[0]
	for i, k := range keys {
		if stable(i) {
			stableKeys.Put(string(k), load.PutSimple(k, k), 0, model.ColPut{Data: k})
		}
	}

	var stop atomic.Bool
	var scanners, writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			sess := s.Session(w)
			rng := rand.New(rand.NewSource(int64(w + 1)))
			for !stop.Load() {
				lo := rng.Intn(space - 120)
				for i := lo; i < lo+120; i++ {
					if !stable(i) {
						sess.PutSimple(keys[i], keys[i])
					}
				}
				for i := lo; i < lo+120; i++ {
					if !stable(i) {
						sess.Remove(keys[i])
					}
				}
				s.Tree().Maintain()
			}
		}(w)
	}
	var runs atomic.Int64
	for r := 0; r < 2; r++ {
		scanners.Add(1)
		go func(r int) {
			defer scanners.Done()
			sess := s.Session(r)
			rng := rand.New(rand.NewSource(int64(100 + r)))
			var sc RangeScratch
			starts, ns, cols := make([][]byte, 20), make([]int, 20), make([][]int, 20)
			for !stop.Load() {
				for j := range starts {
					starts[j] = keys[rng.Intn(space)]
					ns[j] = []int{1, 10, 100}[rng.Intn(3)]
				}
				sc.Reset()
				for j, pairs := range sess.GetRangeBatchInto(starts, ns, cols, &sc) {
					if bad := checkWindow(pairs, starts[j], ns[j], stableKeys); bad != "" {
						t.Errorf("range (%q, %d): %s", starts[j], ns[j], bad)
						return
					}
				}
				runs.Add(1)
			}
		}(r)
	}
	exercised := func() bool {
		st := s.Stats()
		return st.Splits > 0 && st.NodeDeletes > 0 && st.LayerCollapses > 0
	}
	for deadline := time.Now().Add(20 * time.Second); !t.Failed() && time.Now().Before(deadline); {
		if runs.Load() >= 1000 && exercised() {
			break
		}
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	scanners.Wait()
	writers.Wait()
	if !exercised() {
		t.Fatalf("after %d runs the writers had not split, deleted and collapsed: %+v", runs.Load(), s.Stats())
	}
}

// checkWindow checks one range's pairs against the scan statement; stable
// holds the keys no writer removes.
func checkWindow(pairs []Pair, start []byte, n int, stable *model.Model) string {
	if len(pairs) > n {
		return fmt.Sprintf("%d pairs, asked for %d", len(pairs), n)
	}
	for i, p := range pairs {
		switch {
		case bytes.Compare(p.Key, start) < 0:
			return fmt.Sprintf("pair %d key %q sorts before the start", i, p.Key)
		case i > 0 && bytes.Compare(p.Key, pairs[i-1].Key) <= 0:
			return fmt.Sprintf("not ascending: %q after %q", p.Key, pairs[i-1].Key)
		case len(p.Cols) != 1 || !bytes.Equal(p.Cols[0], p.Key):
			return fmt.Sprintf("key %q carries %q", p.Key, p.Cols)
		}
	}
	// Every stable key from the start to where the scan ended was there
	// throughout and must be in the window; a short window ran off the end.
	// One more than the window's length reaches past it or finds one missing.
	j := 0
	for _, p := range stable.Range(string(start), len(pairs)+1, 0) {
		k := p.Key
		if len(pairs) == n && k > string(pairs[len(pairs)-1].Key) {
			break
		}
		for j < len(pairs) && string(pairs[j].Key) < k {
			j++
		}
		if j == len(pairs) || string(pairs[j].Key) != k {
			return fmt.Sprintf("never-removed key %q is missing", k)
		}
	}
	return ""
}
