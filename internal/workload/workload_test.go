package workload

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

func TestDecimalKeyShape(t *testing.T) {
	g := Decimal(1)
	longCount := 0
	const n = 10000
	for i := 0; i < n; i++ {
		k := g.Next()
		if len(k) < 1 || len(k) > 10 {
			t.Fatalf("decimal key length %d out of range: %q", len(k), k)
		}
		for _, c := range k {
			if c < '0' || c > '9' {
				t.Fatalf("non-digit in decimal key %q", k)
			}
		}
		if len(k) >= 9 {
			longCount++
		}
	}
	// §6.1 says ~80% of keys are 9-10 bytes; exact math for uniform
	// [0, 2^31) gives ~95%. Either way, most keys must be longer than
	// 8 bytes so that layer-1 trees are created.
	frac := float64(longCount) / n
	if frac < 0.7 {
		t.Fatalf("9-10 byte fraction = %.2f, expected most keys > 8 bytes", frac)
	}
}

func TestDecimalDeterministic(t *testing.T) {
	a, b := Decimal(7), Decimal(7)
	for i := 0; i < 100; i++ {
		if !bytes.Equal(a.Next(), b.Next()) {
			t.Fatal("same seed must give same stream")
		}
	}
	c := Decimal(8)
	same := 0
	a2 := Decimal(7)
	for i := 0; i < 100; i++ {
		if bytes.Equal(a2.Next(), c.Next()) {
			same++
		}
	}
	if same > 10 {
		t.Fatal("different seeds should give different streams")
	}
}

func TestFixed8Decimal(t *testing.T) {
	g := Fixed8Decimal(3)
	for i := 0; i < 1000; i++ {
		if k := g.Next(); len(k) != 8 {
			t.Fatalf("key %q not 8 bytes", k)
		}
	}
}

func TestPrefixed(t *testing.T) {
	for _, l := range []int{8, 16, 24, 48} {
		g := Prefixed(1, l)
		k1 := g.Next()
		k2 := g.Next()
		if len(k1) != l || len(k2) != l {
			t.Fatalf("length %d: got %d/%d", l, len(k1), len(k2))
		}
		if !bytes.Equal(k1[:l-8], k2[:l-8]) {
			t.Fatal("prefixes must be identical")
		}
	}
}

func TestPrefixedPanicsOnShort(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Prefixed(1, 7)
}

func TestAlpha8(t *testing.T) {
	g := Alpha8(2)
	for i := 0; i < 1000; i++ {
		k := g.Next()
		if len(k) != 8 {
			t.Fatalf("key %q not 8 bytes", k)
		}
		for _, c := range k {
			if c < 'a' || c > 'z' {
				t.Fatalf("non-alpha byte in %q", k)
			}
		}
	}
}

func TestSequential(t *testing.T) {
	g := Sequential("seq")
	prev := g.Next()
	for i := 0; i < 100; i++ {
		k := g.Next()
		if bytes.Compare(prev, k) >= 0 {
			t.Fatalf("not increasing: %q then %q", prev, k)
		}
		prev = k
	}
}

func TestUniqueKeys(t *testing.T) {
	// 300 distinct keys drawn from 500 numbers: the draw repeats itself.
	rng := rand.New(rand.NewSource(1))
	ks := UniqueKeys(funcGen(func() []byte {
		return strconv.AppendInt(nil, rng.Int63n(500), 10)
	}), 300)
	seen := map[string]bool{}
	for _, k := range ks {
		if seen[string(k)] {
			t.Fatalf("duplicate key %q", k)
		}
		seen[string(k)] = true
	}
	if len(ks) != 300 {
		t.Fatalf("got %d keys", len(ks))
	}
}

// uniqueKeysMap is the reference UniqueKeys: a map of every key seen.
// UniqueKeys' index table must keep the same keys in the same order.
func uniqueKeysMap(g KeyGen, n int) [][]byte {
	seen := make(map[string]struct{}, n)
	out := make([][]byte, 0, n)
	for len(out) < n {
		k := g.Next()
		if _, dup := seen[string(k)]; dup {
			continue
		}
		seen[string(k)] = struct{}{}
		out = append(out, k)
	}
	return out
}

func TestUniqueKeysMatchesTheMap(t *testing.T) {
	draw500 := func() KeyGen {
		rng := rand.New(rand.NewSource(3))
		return funcGen(func() []byte {
			return strconv.AppendInt(nil, rng.Int63n(500), 10)
		})
	}
	for _, c := range []struct {
		name string
		gen  func() KeyGen
		n    int
	}{
		// The benchmark's load: 2 M decimal keys hold about a thousand
		// duplicate draws.
		{"decimal-2M", func() KeyGen { return Decimal(11) }, 2_000_000},
		// Every one of 500 numbers: most draws are duplicates.
		{"500-numbers", draw500, 500},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, want := UniqueKeys(c.gen(), c.n), uniqueKeysMap(c.gen(), c.n)
			if len(got) != len(want) {
				t.Fatalf("got %d keys, the map %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("key %d: got %q, the map %q", i, got[i], want[i])
				}
			}
		})
	}
}

func BenchmarkUniqueKeys(b *testing.B) {
	for i := 0; i < b.N; i++ {
		UniqueKeys(Decimal(int64(i)), 2_000_000)
	}
}

func TestZipfBounds(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := uint64(nRaw%1000) + 1
		z := NewZipf(seed, n, YCSBTheta)
		for i := 0; i < 200; i++ {
			if v := z.Next(); v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestZipfSkewShape: item 0 must be drawn far more often than the median
// item, and the head must carry a large share of the mass.
func TestZipfSkewShape(t *testing.T) {
	const n = 1000
	z := NewZipf(42, n, YCSBTheta)
	counts := make([]int, n)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	if counts[0] < counts[n/2]*10 {
		t.Fatalf("item 0 drawn %d times, median item %d: not zipfian", counts[0], counts[n/2])
	}
	head := 0
	for i := 0; i < n/100; i++ { // top 1%
		head += counts[i]
	}
	if frac := float64(head) / draws; frac < 0.15 {
		t.Fatalf("top 1%% carries only %.2f of mass", frac)
	}
}

func TestZipfKeysValid(t *testing.T) {
	g := ZipfKeys(1, 10000)
	for i := 0; i < 1000; i++ {
		k := g.Next()
		if !bytes.HasPrefix(k, []byte("user")) {
			t.Fatalf("bad record key %q", k)
		}
		if len(k) < 5 || len(k) > 24 {
			t.Fatalf("record key length %d out of the paper's 5-24 range", len(k))
		}
	}
}

func TestPartitionSkewShares(t *testing.T) {
	// §6.6: at delta = 9 with 16 partitions, the hot partition receives 40%
	// of requests and each other partition 4%.
	s := NewPartitionSkew(1, 16, 9)
	if got := s.hotWeight; math.Abs(got-0.40) > 1e-9 {
		t.Fatalf("hot share = %f, want 0.40", got)
	}
	counts := make([]int, 16)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[s.Next()]++
	}
	hot := float64(counts[15]) / draws
	if math.Abs(hot-0.40) > 0.02 {
		t.Fatalf("empirical hot share = %.3f", hot)
	}
	for i := 0; i < 15; i++ {
		if f := float64(counts[i]) / draws; math.Abs(f-0.04) > 0.01 {
			t.Fatalf("partition %d share = %.3f, want 0.04", i, f)
		}
	}
}

func TestPartitionSkewUniform(t *testing.T) {
	s := NewPartitionSkew(1, 4, 0)
	counts := make([]int, 4)
	for i := 0; i < 100000; i++ {
		counts[s.Next()]++
	}
	for i, c := range counts {
		if f := float64(c) / 100000; math.Abs(f-0.25) > 0.02 {
			t.Fatalf("partition %d share %.3f under delta=0", i, f)
		}
	}
}
