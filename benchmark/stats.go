package main

import (
	"slices"
	"time"
)

// quantile returns the q-quantile of xs (nearest rank below), or 0 for an
// empty input. xs is not modified. Every median this program takes is over
// an odd count, where quantile(xs, 0.5) is the middle value.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[min(int(q*float64(len(s))), len(s)-1)]
}

// quantileNs sorts samples in place and returns the q-quantile (nearest rank
// below), or 0 for an empty input.
func quantileNs(samples []uint32, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	return float64(samples[min(int(q*float64(len(samples))), len(samples)-1)])
}

// sliceQuantilesUs returns, per slice, the q-quantile of that slice's
// samples in microseconds, skipping slices that recorded nothing.
func sliceQuantilesUs(perSlice [][]uint32, q float64) []float64 {
	out := make([]float64, 0, len(perSlice))
	for _, s := range perSlice {
		if len(s) > 0 {
			out = append(out, quantileNs(s, q)/1e3)
		}
	}
	return out
}

// clampNs stores a duration as uint32 nanoseconds (4.29 s saturates; a
// round trip that long has already failed the run's timeout).
func clampNs(d time.Duration) uint32 {
	if d < 0 {
		return 0
	}
	if d > time.Duration(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(d)
}
