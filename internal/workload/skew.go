package workload

import "math/rand"

// PartitionSkew models request skew across partitions with the single
// parameter delta of Hua and Lee, as used in §6.6: with P partitions,
// P-1 of them receive the same number of requests while the last receives
// delta times more than the others. At delta = 9 with 16 partitions, the hot
// partition handles 40% of requests and every other partition 4%.
type PartitionSkew struct {
	rng        *rand.Rand
	partitions int
	hotWeight  float64 // probability of the hot partition (index partitions-1)
}

// NewPartitionSkew creates a chooser over the given number of partitions.
// delta = 0 is uniform. Negative deltas panic.
func NewPartitionSkew(seed int64, partitions int, delta float64) *PartitionSkew {
	if partitions <= 0 {
		panic("workload: partitions must be positive")
	}
	if delta < 0 {
		panic("workload: delta must be non-negative")
	}
	// Weights: P-1 partitions get weight 1, the hot one gets 1 + delta.
	total := float64(partitions-1) + 1 + delta
	return &PartitionSkew{
		rng:        rand.New(rand.NewSource(seed)),
		partitions: partitions,
		hotWeight:  (1 + delta) / total,
	}
}

// Next returns the partition index for the next request. The hot partition
// is index partitions-1.
func (s *PartitionSkew) Next() int {
	if s.rng.Float64() < s.hotWeight {
		return s.partitions - 1
	}
	if s.partitions == 1 {
		return 0
	}
	return s.rng.Intn(s.partitions - 1)
}
