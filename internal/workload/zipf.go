package workload

import (
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
)

// Zipf draws items 0..n-1 with zipfian popularity (item 0 most popular),
// using the standard YCSB/Gray et al. rejection-free formula with
// theta = 0.99. Go's math/rand.Zipf requires exponent > 1 and cannot express
// YCSB's theta, so this is implemented from the formula.
type Zipf struct {
	rng        *rand.Rand
	items      uint64
	theta      float64
	zetan      float64
	zeta2theta float64
	alpha      float64
	eta        float64
}

// YCSBTheta is the zipfian constant used by YCSB and the paper's MYCSB.
const YCSBTheta = 0.99

// NewZipf creates a zipfian chooser over n items with the given theta.
func NewZipf(seed int64, n uint64, theta float64) *Zipf {
	if n == 0 {
		panic("workload: zipf over zero items")
	}
	z := &Zipf{
		rng:   rand.New(rand.NewSource(seed)),
		items: n,
		theta: theta,
	}
	z.zetan = zeta(n, theta)
	z.zeta2theta = zeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2theta/z.zetan)
	return z
}

func zeta(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next returns the next item, 0 <= item < n. Item 0 is the most popular.
func (z *Zipf) Next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	return uint64(float64(z.items) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// scramble spreads item popularity across the key space the way YCSB's
// scrambled zipfian does, so hot keys are not clustered in key order.
func scramble(item, n uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(item >> (8 * uint(i)))
	}
	h.Write(buf[:])
	return h.Sum64() % n
}

// RecordKey renders record number i as a MYCSB key: "user" plus the decimal
// id, giving the paper's 5-to-24-byte keys.
func RecordKey(i uint64) []byte {
	return strconv.AppendUint([]byte("user"), i, 10)
}

// ZipfKeys returns a KeyGen drawing MYCSB record keys over n records with
// scrambled zipfian popularity.
func ZipfKeys(seed int64, n uint64) KeyGen {
	z := NewZipf(seed, n, YCSBTheta)
	return funcGen(func() []byte {
		return RecordKey(scramble(z.Next(), n))
	})
}
