package obs

import (
	"io"
	"sort"
	"strconv"
	"strings"
)

// HistID names one of the store-side histograms a Registry owns. Cluster
// mode's per-node RPC histogram lives client-side (outside any store) and
// is built directly with NewHist.
type HistID int

const (
	HGet HistID = iota
	HPut
	HGetBatch
	HPutBatch
	HScan
	HCas
	HGetOrLoad
	HWALFlush
	HCheckpoint
	HRecovery
	HBackendLoad
	HEvict
	NumHists
)

var histNames = [NumHists]string{
	HGet:         "get",
	HPut:         "put",
	HGetBatch:    "get_batch",
	HPutBatch:    "put_batch",
	HScan:        "scan",
	HCas:         "cas",
	HGetOrLoad:   "getorload",
	HWALFlush:    "wal_flush",
	HCheckpoint:  "checkpoint",
	HRecovery:    "recovery",
	HBackendLoad: "backend_load",
	HEvict:       "evict",
}

// Registry bundles a store's histograms and its flight recorder. Every
// store builds one; its record paths allocate nothing.
type Registry struct {
	hists [NumHists]*Hist
	rec   *Recorder
}

// NewRegistry builds the full set of histograms (one shard per worker) and
// a flight recorder with RingSize events per worker ring.
func NewRegistry(workers int) *Registry {
	r := &Registry{}
	for id := HistID(0); id < NumHists; id++ {
		r.hists[id] = NewHist(histNames[id], workers)
	}
	r.rec = NewRecorder(workers)
	return r
}

// Hist returns the histogram for id.
//
//masstree:noalloc
func (r *Registry) Hist(id HistID) *Hist { return r.hists[id] }

// Recorder returns the flight recorder.
//
//masstree:noalloc
func (r *Registry) Recorder() *Recorder { return r.rec }

// Snapshots copies every histogram, in HistID order.
func (r *Registry) Snapshots() []HistSnapshot {
	out := make([]HistSnapshot, 0, NumHists)
	for id := HistID(0); id < NumHists; id++ {
		out = append(out, r.hists[id].Snapshot())
	}
	return out
}

// Stat is one named numeric metric. Every stats surface — the wire Stats
// op, /metrics, /varz — renders from the same []Stat so they cannot
// disagree about what a key means.
type Stat struct {
	Name  string
	Value int64
}

// statPrefix stems every histogram-derived stats key so clients can group
// and cluster aggregation can recognize them.
const statPrefix = "lat_"

// Quantiles reported as stats keys, with their key suffixes.
var quantileKeys = [...]struct {
	Suffix string
	Q      float64
}{
	{"_p50", 0.50},
	{"_p90", 0.90},
	{"_p99", 0.99},
	{"_p999", 0.999},
}

// AppendStats appends a histogram snapshot's stats keys to dst:
// lat_<name>_count, lat_<name>_sum (ns), the four quantiles
// lat_<name>_p50/_p90/_p99/_p999 (representative ns), and one
// lat_<name>_b<i> entry per non-zero bucket. Every value is a base-10
// integer, so stats readers parse them like any other counter, and the
// bucket keys let an aggregator sum across nodes and re-derive quantiles.
func AppendStats(dst []Stat, s HistSnapshot) []Stat {
	stem := statPrefix + s.Name
	dst = append(dst, Stat{stem + "_count", int64(s.Count())})
	dst = append(dst, Stat{stem + "_sum", int64(s.Sum)})
	for _, qk := range quantileKeys {
		dst = append(dst, Stat{stem + qk.Suffix, int64(s.Quantile(qk.Q))})
	}
	for b := 0; b < NumBuckets; b++ {
		if s.Buckets[b] != 0 {
			dst = append(dst, Stat{stem + "_b" + strconv.Itoa(b), int64(s.Buckets[b])})
		}
	}
	return dst
}

// bucketKey splits a stats key of the form lat_<stem>_b<i> into its stem
// ("lat_<stem>") and bucket index; ok is false for any other key. The
// bucket suffix is the *last* "_b<digits>" run, so stems containing "_b"
// (lat_get_batch_b7) parse correctly.
func bucketKey(k string) (stem string, bucket int, ok bool) {
	if !strings.HasPrefix(k, statPrefix) {
		return "", 0, false
	}
	i := strings.LastIndex(k, "_b")
	if i < 0 {
		return "", 0, false
	}
	n, err := strconv.Atoi(k[i+2:])
	if err != nil || n < 0 || n >= NumBuckets {
		return "", 0, false
	}
	return k[:i], n, true
}

// IsBucketKey reports whether a stats key is a raw histogram bucket count
// (lat_<stem>_b<i>). /metrics skips these as scalar gauges — the same
// counts are exposed there as proper Prometheus histogram buckets.
func IsBucketKey(k string) bool {
	_, _, ok := bucketKey(k)
	return ok
}

// RecomputeQuantiles repairs histogram-derived keys in an aggregated stats
// map. Summing per-node stats is right for counts, sums, and buckets, but
// adding two p99s is meaningless — so the aggregator sums everything and
// then calls this, which rebuilds each histogram from its summed
// lat_*_b<i> bucket keys and overwrites the quantile and count keys with
// values derived from the merged distribution.
func RecomputeQuantiles(m map[string]int64) {
	merged := map[string]*HistSnapshot{}
	for k, v := range m {
		stem, b, ok := bucketKey(k)
		if !ok {
			continue
		}
		s := merged[stem]
		if s == nil {
			s = &HistSnapshot{}
			merged[stem] = s
		}
		s.Buckets[b] = uint64(v)
	}
	for stem, s := range merged {
		if sum, ok := m[stem+"_sum"]; ok {
			s.Sum = uint64(sum)
		}
		m[stem+"_count"] = int64(s.Count())
		for _, qk := range quantileKeys {
			m[stem+qk.Suffix] = int64(s.Quantile(qk.Q))
		}
	}
}

// WriteProm renders a histogram snapshot in Prometheus text exposition
// format (hand-rolled; the module stays dependency-free): a classic
// cumulative-bucket histogram named masstree_lat_<name>_ns with le bounds
// in nanoseconds.
func WriteProm(w io.Writer, s HistSnapshot) error {
	stem := "masstree_" + statPrefix + s.Name + "_ns"
	if _, err := io.WriteString(w, "# TYPE "+stem+" histogram\n"); err != nil {
		return err
	}
	var cum uint64
	for b := 0; b < NumBuckets; b++ {
		if s.Buckets[b] == 0 {
			continue
		}
		cum += s.Buckets[b]
		if b == NumBuckets-1 {
			continue // top bucket's bound is +Inf, emitted below
		}
		// le is the bucket's exclusive upper bound: 2^(b+1) ns.
		le := strconv.FormatUint(uint64(1)<<uint(b+1), 10)
		if _, err := io.WriteString(w, stem+"_bucket{le=\""+le+"\"} "+
			strconv.FormatUint(cum, 10)+"\n"); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, stem+"_bucket{le=\"+Inf\"} "+
		strconv.FormatUint(cum, 10)+"\n"); err != nil {
		return err
	}
	if _, err := io.WriteString(w, stem+"_sum "+strconv.FormatUint(s.Sum, 10)+"\n"); err != nil {
		return err
	}
	_, err := io.WriteString(w, stem+"_count "+strconv.FormatUint(cum, 10)+"\n")
	return err
}

// SortStats orders stats keys byte-wise — the deterministic order every
// rendering surface uses.
func SortStats(stats []Stat) {
	sort.Slice(stats, func(i, j int) bool { return stats[i].Name < stats[j].Name })
}
