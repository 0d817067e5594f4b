package hashtable

import (
	"fmt"
	"testing"

	"repro/internal/baseline/conformance"
	"repro/internal/value"
)

func mk() conformance.Store { return New(4096) }

func TestModel(t *testing.T) { conformance.Model(t, mk) }

func TestConcurrent(t *testing.T) { conformance.Concurrent(t, mk) }

// avgProbe reports the mean chain position of the entries (the paper's
// "1.1 entries inspected per lookup" statistic).
func avgProbe(t *Table) float64 {
	entries, probes := 0, 0
	for i := range t.buckets {
		pos := 0
		for e := t.buckets[i].Load(); e != nil; e = e.next {
			pos++
			entries++
			probes += pos
		}
	}
	if entries == 0 {
		return 0
	}
	return float64(probes) / float64(entries)
}

func TestLowOccupancyProbes(t *testing.T) {
	// At the paper's ~30% occupancy, lookups inspect ~1.1 entries.
	const n = 10000
	tb := New(n * 3)
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%08d", i))
		tb.Put(k, value.New(k))
	}
	if p := avgProbe(tb); p > 1.3 {
		t.Fatalf("average probe length %.3f, expected ~1.1", p)
	}
}
