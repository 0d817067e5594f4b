package core

// Ablation benchmarks for §4.8's design discussion:
//
//   - linear vs binary search within a border node ("linear search has
//     higher complexity ... but exhibits better locality"; the paper saw
//     ±0-5% depending on architecture);
//   - batched vs one-at-a-time lookups and puts (PALM-style, §4.8), and
//     short scans one at a time vs in runs behind a wave over their start
//     keys;
//   - value update via one atomic pointer write vs full put path.
import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/occ"
	"repro/internal/value"
	"repro/internal/workload"
)

// searchRankBinary is the binary-search alternative to searchRank, used only
// by this ablation.
func (n *borderNode) searchRankBinary(p permutation, slice uint64, ord int) (rank int, found bool) {
	lo, hi := 0, p.count()
	for lo < hi {
		mid := (lo + hi) / 2
		slot := p.slot(mid)
		c := cmpKey(n.keyslice[slot].Load(), ordOf(n.keylen(slot)), slice, ord)
		switch {
		case c < 0:
			lo = mid + 1
		case c > 0:
			hi = mid
		default:
			return mid, true
		}
	}
	return lo, false
}

func buildFullBorder(b *testing.B) (*borderNode, []uint64) {
	tr := New()
	var slices []uint64
	for i := 0; i < width; i++ {
		k := []byte(fmt.Sprintf("key%02d", i*3))
		tr.Put(k, value.New(k))
		slices = append(slices, keySlice(k))
	}
	root := tr.rootHeader()
	if !occ.Border(root.Load()) {
		b.Fatal("expected a single border node")
	}
	return root.border(), slices
}

func BenchmarkBorderSearchLinear(b *testing.B) {
	n, slices := buildFullBorder(b)
	p := n.perm()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.searchRank(p, slices[i%len(slices)], 5)
	}
}

func BenchmarkBorderSearchBinary(b *testing.B) {
	n, slices := buildFullBorder(b)
	p := n.perm()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.searchRankBinary(p, slices[i%len(slices)], 5)
	}
}

// TestSearchBinaryMatchesLinear keeps the ablation honest: both search
// strategies must agree on every (slice, ord) probe.
func TestSearchBinaryMatchesLinear(t *testing.T) {
	tr := New()
	for i := 0; i < width; i++ {
		k := []byte(fmt.Sprintf("key%02d", i*3))
		tr.Put(k, value.New(k))
	}
	n := tr.rootHeader().border()
	p := n.perm()
	for i := 0; i < 50; i++ {
		k := []byte(fmt.Sprintf("key%02d", i))
		slice, ord := keySlice(k), keyOrd(k)
		r1, f1 := n.searchRank(p, slice, ord)
		r2, f2 := n.searchRankBinary(p, slice, ord)
		if r1 != r2 || f1 != f2 {
			t.Fatalf("probe %q: linear (%d,%v) binary (%d,%v)", k, r1, f1, r2, f2)
		}
	}
}

// BenchmarkPointVsBatch compares a loop of single-key calls with the batched
// call on a tree far beyond the caches — 2 M decimal keys, uniformly random
// batches — by batch size, in ns per key: Get against GetBatchInto, and Put
// against PutBatchInto. Each put stores the value the key already has, so
// every row reads the same tree; both put rows fetch those values before the
// call, so that neither pays for the fetch inside its descent or its lock. On
// a cache-resident tree (it once used 100 000 keys) there are no misses to
// overlap and the two read alike; at batch=1 the batched call runs no wave,
// and the pair should read alike too.
func BenchmarkPointVsBatch(b *testing.B) {
	if testing.Short() {
		b.Skip("loads 2M keys")
	}
	tr := New()
	keys := workload.Keys(workload.Decimal(10), 2_000_000)
	own := make([]*value.Value, len(keys)) // own[i] is keys[i]'s value
	for i, k := range keys {
		own[i] = value.New(k)
		tr.Put(k, own[i])
	}
	for _, size := range []int{1, 2, 4, 16, 64} {
		batch, at := make([][]byte, size), make([]int, size)
		vals := make([]*value.Value, size)
		found := make([]bool, size)
		var sc BatchScratch
		run := func(name string, op func()) {
			b.Run(fmt.Sprintf("%s/batch=%d", name, size), func(b *testing.B) {
				rng := rand.New(rand.NewSource(int64(size)))
				for i := 0; i < b.N; i++ {
					for j := range batch {
						at[j] = rng.Intn(len(keys))
						batch[j] = keys[at[j]]
					}
					op()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/key")
			})
		}
		ownValues := func() {
			for j := range batch {
				vals[j] = own[at[j]]
			}
		}
		run("get-loop", func() {
			for j, k := range batch {
				vals[j], found[j] = tr.Get(k)
			}
		})
		run("getbatch", func() { tr.GetBatchInto(batch, vals, found, &sc) })
		run("put-loop", func() {
			ownValues()
			for j, k := range batch {
				tr.Put(k, vals[j])
			}
		})
		run("putbatch", func() {
			ownValues()
			tr.PutBatchInto(batch, &sc, func(j int, _ *value.Value) *value.Value { return vals[j] })
		})
	}
}

// BenchmarkScanShort times ten-pair scans from uniformly random start keys
// on the same tree, in ns per scan: a loop of ScanNInto alone, and runs of
// 2, 4 and 16 scans whose start keys first descend together (Prefetch).
// Inside a scan, scanLayer asks for the ten values and the next border at
// once either way; what the run adds is that sixteen scans' first borders
// are fetched together instead of one descent after another.
func BenchmarkScanShort(b *testing.B) {
	if testing.Short() {
		b.Skip("loads 2M keys")
	}
	tr := New()
	keys := workload.Keys(workload.Decimal(10), 2_000_000)
	for _, k := range keys {
		tr.Put(k, value.New(k))
	}
	const pairs = 10
	var (
		buf  []byte
		left int
		sink uint64
		sc   BatchScratch
	)
	visit := func(_ []byte, v *value.Value) bool {
		sink += v.Version() // a scan reads what it finds: the value's first line
		left--
		return left > 0
	}
	for _, size := range []int{1, 2, 4, 16} {
		name := fmt.Sprintf("wave/run=%d", size)
		if size == 1 {
			name = "scan-loop"
		}
		b.Run(name, func(b *testing.B) {
			starts := make([][]byte, size)
			rng := rand.New(rand.NewSource(int64(size)))
			for i := 0; i < b.N; i++ {
				for j := range starts {
					starts[j] = keys[rng.Intn(len(keys))]
				}
				if size > 1 {
					tr.Prefetch(starts, &sc)
				}
				for _, start := range starts {
					left = pairs
					buf = tr.ScanNInto(start, pairs, buf, visit)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/scan")
		})
	}
	_ = sink
}

func BenchmarkValueUpdateInPlace(b *testing.B) {
	tr := New()
	k := []byte("hotkey")
	tr.Put(k, value.New([]byte("v")))
	v := value.New([]byte("v2"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Put(k, v) // replaces via one atomic pointer store (§4.6.1)
	}
}
