package core

// Ablation benchmarks for §4.8's design discussion:
//
//   - linear vs binary search within a border node ("linear search has
//     higher complexity ... but exhibits better locality"; the paper saw
//     ±0-5% depending on architecture);
//   - batched vs one-at-a-time lookups (PALM-style, §4.8);
//   - value update via one atomic pointer write vs full put path.
import (
	"fmt"
	"testing"

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
	if !isBorder(root.version.Load()) {
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

func BenchmarkGetVsGetBatch(b *testing.B) {
	tr := New()
	keys := workload.Keys(workload.Decimal(10), 100_000)
	for _, k := range keys {
		tr.Put(k, value.New(k))
	}
	const batch = 256
	b.Run("get-one-at-a-time", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				tr.Get(keys[(i*batch+j*61)%len(keys)])
			}
		}
	})
	b.Run("getbatch", func(b *testing.B) {
		buf := make([][]byte, batch)
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				buf[j] = keys[(i*batch+j*61)%len(keys)]
			}
			tr.GetBatch(buf)
		}
	})
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
