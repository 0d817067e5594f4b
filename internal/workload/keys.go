// Package workload generates the key distributions and request streams used
// by the paper's evaluation (§6.1, §6.6, §7):
//
//   - "1-to-10-byte decimal" keys: decimal string representations of uniform
//     random numbers in [0, 2^31), the main tree workload. The paper
//     gives 80% of keys as 9–10 bytes long; this generator's uniform
//     [0, 2^31) gives 95.3% (measured on a 2 M draw). Keys that long force
//     Masstree to create layer-1 trees.
//   - fixed 8-byte decimal keys (variable-length-key cost, §6.4),
//   - shared-prefix keys where only the final 8 bytes vary (Figure 9),
//   - 8-byte random alphabetical keys (hash-table comparison, §6.4),
//   - zipfian-popularity record choosers for MYCSB (§7),
//   - the Hua–Lee single-parameter skew model for partitioned stores (§6.6).
//
// All generators are deterministic given their seed, so experiments are
// reproducible and multiple workers can generate disjoint streams.
package workload

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math/rand"
	"strconv"
)

// KeyGen produces a stream of keys. Implementations are not safe for
// concurrent use; give each worker its own generator.
type KeyGen interface {
	// Next returns the next key. The returned slice is freshly allocated
	// and may be retained by the caller.
	Next() []byte
}

// funcGen adapts a closure to KeyGen.
type funcGen func() []byte

func (f funcGen) Next() []byte { return f() }

// Decimal returns the paper's "1-to-10-byte decimal" generator: the decimal
// representation of uniform random numbers in [0, 2^31).
func Decimal(seed int64) KeyGen {
	rng := rand.New(rand.NewSource(seed))
	return funcGen(func() []byte {
		return strconv.AppendInt(nil, rng.Int63n(1<<31), 10)
	})
}

// Fixed8Decimal returns 8-byte decimal keys: zero-padded numbers below 10^8
// (§6.4's fixed-size-key comparison).
func Fixed8Decimal(seed int64) KeyGen {
	rng := rand.New(rand.NewSource(seed))
	return funcGen(func() []byte {
		return []byte(fmt.Sprintf("%08d", rng.Int63n(1e8)))
	})
}

// Prefixed returns keys of exactly length bytes where all keys share a
// constant prefix and only the final 8 bytes vary uniformly (Figure 9).
// length must be at least 8.
func Prefixed(seed int64, length int) KeyGen {
	if length < 8 {
		panic("workload: prefixed key length must be >= 8")
	}
	prefix := make([]byte, length-8)
	for i := range prefix {
		prefix[i] = 'P'
	}
	rng := rand.New(rand.NewSource(seed))
	return funcGen(func() []byte {
		k := make([]byte, 0, length)
		k = append(k, prefix...)
		return append(k, []byte(fmt.Sprintf("%08d", rng.Int63n(1e8)))...)
	})
}

// Alpha8 returns 8-byte random alphabetical keys (§6.4: digit-only keys
// caused hash collisions, and the paper wanted the test to favor the hash
// table).
func Alpha8(seed int64) KeyGen {
	rng := rand.New(rand.NewSource(seed))
	return funcGen(func() []byte {
		k := make([]byte, 8)
		for i := range k {
			k[i] = byte('a' + rng.Intn(26))
		}
		return k
	})
}

// Sequential returns keys "prefix%08d" in increasing order, for sequential-
// insert workloads (§4.3's optimization).
func Sequential(prefix string) KeyGen {
	i := int64(0)
	return funcGen(func() []byte {
		k := []byte(fmt.Sprintf("%s%08d", prefix, i))
		i++
		return k
	})
}

// Keys materializes n keys from g.
func Keys(g KeyGen, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// UniqueKeys materializes n distinct keys from g (discarding duplicates),
// useful for pre-population when the exact cardinality matters. Duplicates
// are found through an open-addressing table of indexes into the output,
// probed by a hash of the key's bytes, so no key is copied.
func UniqueKeys(g KeyGen, n int) [][]byte {
	size := 1
	for size < 2*n { // at most half full
		size <<= 1
	}
	table := make([]int32, size) // 1 + an index into out; 0 is empty
	mask := uint64(size - 1)
	seed := maphash.MakeSeed()
	out := make([][]byte, 0, n)
	for len(out) < n {
		k := g.Next()
		for i := maphash.Bytes(seed, k) & mask; ; i = (i + 1) & mask {
			j := table[i]
			if j == 0 {
				out = append(out, k)
				table[i] = int32(len(out))
				break
			}
			if bytes.Equal(out[j-1], k) {
				break
			}
		}
	}
	return out
}
