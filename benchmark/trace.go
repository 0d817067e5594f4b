package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/value"
)

// counters is everything read at a phase boundary of a traced run, so that
// ratios are taken over the same interval the spans cover.
type counters struct {
	at           time.Time
	cpuS         float64 // rusage user+system
	mem          runtime.MemStats
	tree         core.StatsSnapshot
	stats        map[string]int64 // the wire Stats op
	flush        obs.HistSnapshot
	flushRetries int64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func (h *host) readCounters() (counters, error) {
	c := counters{at: time.Now(), cpuS: cpuSeconds(), tree: h.store.Stats(),
		flush: h.store.Obs().Hist(obs.HWALFlush).Snapshot(), flushRetries: h.store.FlushRetries()}
	runtime.ReadMemStats(&c.mem)
	var err error
	c.stats, err = h.conns[0].Stats()
	return c, err
}

// flushDelta subtracts two snapshots of the WAL flush histogram.
func flushDelta(after, before obs.HistSnapshot) obs.HistSnapshot {
	d := after
	for b := range d.Buckets {
		d.Buckets[b] -= before.Buckets[b]
	}
	d.Sum -= before.Sum
	return d
}

// serverExecKeys are the Stats-op histogram sums that together time the
// server's executor: single ops and batched runs.
var serverExecKeys = []string{"lat_get_sum", "lat_put_sum", "lat_get_batch_sum", "lat_put_batch_sum", "lat_scan_sum"}

// spanRecord is the on-disk form of a span.
type spanRecord struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Batch  uint32 `json:"batch"`
	Conn   uint8  `json:"conn"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpansWritten caps each span set written to disk; the metrics use every
// span, the file is for reading a few thousand batches by eye.
const maxSpansWritten = 12_000

func toRecords(spans []span) []spanRecord {
	spans = spans[:min(len(spans), maxSpansWritten)]
	out := make([]spanRecord, len(spans))
	for i, s := range spans {
		out[i] = spanRecord{Name: spanNames[s.kind], Parent: s.kind.parent(), Batch: s.batch, Conn: s.conn, Start: s.start, End: s.end}
	}
	return out
}

// writeSpans writes the in-memory spans out at the end of a traced run.
func writeSpans(dir, workload string, sets map[string][]span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	out := map[string][]spanRecord{}
	for name, spans := range sets {
		out[name] = toRecords(spans)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, b, 0o644)
}

// spanSums totals span durations per kind, from spans starting at or after
// from (the end of a phase's warm-up).
func spanSums(spans []span, from time.Duration) (sum [numSpanKinds]int64, n [numSpanKinds]int64) {
	for _, s := range spans {
		if s.start >= int64(from) {
			sum[s.kind] += s.end - s.start
			n[s.kind]++
		}
	}
	return sum, n
}

// quietDecile is the slice quantile the unloaded latencies report: the
// round trip sits in a quiet state most of the time and is knocked into a
// slower one for a few hundred milliseconds at a stretch, more often when
// the box is busy, so the low decile of the slices repeats where their
// median does not (README.md, "Noise").
const quietDecile = 0.10

// unloadedLatency reduces the unloaded phase to its two metrics: the
// per-slice p50 and p99 round trip, each taken at quietDecile over slices.
func unloadedLatency(unl *phaseResult) (p50, p99 float64, lats [][]uint32) {
	lats = unl.sliceLatencies()
	return quantile(sliceQuantilesUs(lats, 0.50), quietDecile), quantile(sliceQuantilesUs(lats, 0.99), quietDecile), lats
}

// obsRecordNs times the instrumentation's own record path.
func obsRecordNs() float64 {
	const n = 1_000_000
	hist := obs.NewHist("bench", 1)
	start := time.Now()
	for i := 0; i < n; i++ {
		hist.Record(0, time.Duration(i))
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// epochPinNs times one Enter/Exit pair on the live store's epoch manager,
// the cost every batch pays once.
func (h *host) epochPinNs() float64 {
	const n = 1_000_000
	eh := h.store.Epoch().Register()
	defer h.store.Epoch().Unregister(eh)
	start := time.Now()
	for i := 0; i < n; i++ {
		eh.Enter()
		eh.Exit()
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// nodeBytesPerKey builds a scratch core tree holding every dataset key with
// one shared value and reports its heap per key: the tree's node memory
// alone, the part of heap_bytes_per_key that is core's.
func (h *host) nodeBytesPerKey() float64 {
	base := heapAfterGC()
	t := core.New()
	shared := value.New([]byte{0})
	for _, k := range h.data.keys {
		t.Put(k, shared)
	}
	perKey := float64(heapAfterGC()-base) / float64(len(h.data.keys))
	runtime.KeepAlive(t) // the reading above must see the tree
	return perKey
}

// checkpointWriteS is the median of n (odd) CheckpointN calls after one
// discarded.
func (h *host) checkpointWriteS(n int) (float64, error) {
	var times []float64
	for i := 0; i <= n; i++ {
		start := time.Now()
		if _, _, err := h.store.CheckpointN(storeWorkers); err != nil {
			return 0, fmt.Errorf("checkpoint: %w", err)
		}
		if i > 0 {
			times = append(times, time.Since(start).Seconds())
		}
	}
	return quantile(times, 0.5), nil
}

// runTraced is the traced run: it reports every per-layer metric and no
// end-to-end one. The saturated driver runs once untraced and once with
// client-side spans (their ratio is trace.overhead), counters are read at the
// traced phase's boundaries, and the same pre-generated batches are then
// replayed through each layer's public functions on one goroutine.
func runTraced(ctx context.Context, o options, sp spec, records int, p plan) (rep *report, err error) {
	h, _, err := setUpTimed(o, sp, records)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, h.close()) }()

	cursors := make([]int, numConns)
	runtime.GC()
	unl := h.runPhase(ctx, cursors, unloadedShape, p.warm, p.unloaded, false)
	runtime.GC()
	sat := h.runPhase(ctx, cursors, saturatedShape, p.warm, p.saturated, false)
	runtime.GC()
	before, err := h.readCounters()
	if err != nil {
		return nil, fmt.Errorf("stats op: %w", err)
	}
	tr := h.runPhase(ctx, cursors, saturatedShape, p.warm, p.traced, true)
	after, err := h.readCounters()
	if err != nil {
		return nil, fmt.Errorf("stats op: %w", err)
	}
	rep = &report{}
	for _, ph := range []*phaseResult{unl, sat, tr} {
		rep.Attempted += ph.attempted
		rep.Failed += ph.failed
		if ph.firstErr != nil {
			fmt.Fprintf(o.log, "failed-op %v\n", ph.firstErr)
		}
	}

	rp16, err := h.replay(satBatch, 8192)
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	rp1, err := h.replay(1, 32768)
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	nodeBytes := h.nodeBytesPerKey()
	bytesPerValue := float64(h.store.CacheStats().BytesLive) / float64(max(1, h.store.Len()))
	ckptS, err := h.checkpointWriteS(5)
	if err != nil {
		return nil, err
	}
	rs, rerr := h.restart(o.seed, p)
	if rerr != nil {
		// A recovery that loses or corrupts a key is a wrong output, not a
		// crash of the benchmark: report it as such.
		fmt.Fprintf(o.log, "restart-failed %v\n", rerr)
		rs = &restartResult{}
	}
	rep.Correct = rep.Failed == 0 && rerr == nil

	// Client-side spans of the traced phase.
	var spans []span
	for _, c := range tr.conns {
		spans = append(spans, c.spans...)
	}
	sums, counts := spanSums(spans, p.warm)
	tracedOps := float64(counts[spanBatch] * satBatch)
	var batchLat []uint32
	for _, s := range spans {
		if s.kind == spanBatch && s.start >= int64(p.warm) {
			batchLat = append(batchLat, clampNs(time.Duration(s.end-s.start)))
		}
	}
	p50, p99, lats := unloadedLatency(unl)
	replayedUs := float64(rp1.total()) / float64(rp1.batches) / 1e3

	// Counter deltas over the traced phase, warm-up included on both sides.
	ops := float64(tr.attempted)
	wall := after.at.Sub(before.at).Seconds()
	delta := func(key string) float64 { return float64(after.stats[key] - before.stats[key]) }
	var execNs float64
	for _, k := range serverExecKeys {
		execNs += delta(k)
	}
	flush := flushDelta(after.flush, before.flush)
	perMop := func(n int64) float64 { return float64(n) / ops * 1e6 }

	untracedTput, _ := sat.throughput()
	tracedTput, _ := tr.throughput()
	r := rp16
	rep.Metrics = map[string]metric{
		"lat_p50_us":                 {p50, "us"},
		"lat_p99_us":                 {p99, "us"},
		"recover_s":                  {quantile(rs.openS, 0.5), "s"},
		"client.go_ns_per_op":        {float64(sums[spanClientGo]) / tracedOps, "ns"},
		"client.wait_share":          {float64(sums[spanClientWait]) / (float64(numConns) * float64(p.traced)), "ratio"},
		"client.sat_batch_p50_us":    {quantileNs(batchLat, 0.50) / 1e3, "us"},
		"client.sat_batch_p99_us":    {quantileNs(batchLat, 0.99) / 1e3, "us"},
		"client.rtt_residual_us":     {p50 - replayedUs, "us"},
		"wire.req_encode_ns_per_op":  {r.perOp(r.ns[spanReqEncode]), "ns"},
		"wire.req_decode_ns_per_op":  {r.perOp(r.ns[spanReqDecode]), "ns"},
		"wire.resp_encode_ns_per_op": {r.perOp(r.ns[spanRespEncode]), "ns"},
		"wire.resp_decode_ns_per_op": {r.perOp(r.ns[spanRespDecode]), "ns"},
		"wire.resp_bytes_per_op":     {r.perOp(r.respBytes), "B"},
		"server.exec_ns_per_op":      {execNs / ops, "ns"},
		"server.batched_share":       {(delta("batched_gets") + delta("batched_puts")) / ops, "ratio"},
		"server.errored_requests":    {delta("errored_requests"), "count"},
		"kvstore.get_ns_per_op":      {ratio(r.storeNs[kindGet], r.n[kindGet]), "ns"},
		"kvstore.put_ns_per_op":      {ratio(r.storeNs[kindPut], r.n[kindPut]), "ns"},
		"kvstore.scan_ns_per_op":     {ratio(r.storeNs[kindScan], r.n[kindScan]), "ns"},
		"kvstore.self_ns_per_op":     {r.perOp(r.ns[spanStore] - r.childNs()), "ns"},
		"core.get_ns_per_op":         {ratio(r.coreNs[kindGet], r.n[kindGet]), "ns"},
		"core.put_ns_per_op":         {ratio(r.coreNs[kindPut], r.n[kindPut]), "ns"},
		"core.scan_ns_per_key":       {ratio(r.coreNs[kindScan], r.scanKeys), "ns"},
		"core.root_retries_per_mop":  {perMop(after.tree.RootRetries - before.tree.RootRetries), "1/Mop"},
		"core.local_retries_per_mop": {perMop(after.tree.LocalRetries - before.tree.LocalRetries), "1/Mop"},
		"core.splits":                {float64(after.tree.Splits - before.tree.Splits), "count"},
		"core.node_bytes_per_key":    {nodeBytes, "B"},
		"value.build_ns_per_op":      {ratio(r.valueNs, r.n[kindPut]), "ns"},
		"value.bytes_per_value":      {bytesPerValue, "B"},
		"epoch.pin_ns":               {r.epochPinNs, "ns"},
		"wal.append_ns_per_op":       {ratio(r.walNs, r.n[kindPut]), "ns"},
		"wal.bytes_per_put":          {ratio(r.walBytes, r.n[kindPut]), "B"},
		"wal.flush_p50_us":           {float64(flush.Quantile(0.50)) / 1e3, "us"},
		"wal.flush_p99_us":           {float64(flush.Quantile(0.99)) / 1e3, "us"},
		"wal.flushes_per_s":          {float64(flush.Count()) / wall, "1/s"},
		"wal.flush_retries":          {float64(after.flushRetries - before.flushRetries), "count"},
		"wal.parse_s":                {rs.parseS, "s"},
		"checkpoint.write_s":         {ckptS, "s"},
		"checkpoint.bytes_per_key":   {ratio(rs.ckptBytes, int64(rs.ckptKeys)), "B"},
		"checkpoint.load_s":          {rs.loadS, "s"},
		"obs.record_ns":              {obsRecordNs(), "ns"},
		"runtime.allocs_per_op":      {float64(after.mem.Mallocs-before.mem.Mallocs) / ops, "count"},
		"runtime.alloc_bytes_per_op": {float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / ops, "B"},
		"runtime.gc_cycles_per_s":    {float64(after.mem.NumGC-before.mem.NumGC) / wall, "1/s"},
		"runtime.gc_pause_ms_per_s":  {float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6 / wall, "ms/s"},
		"runtime.cores_busy":         {(after.cpuS - before.cpuS) / wall, "cores"},
		"workload.gen_ns_per_op":     {h.genNsPerOp, "ns"},
		"trace.overhead":             {1 - tracedTput/untracedTput, "ratio"},
	}

	path, werr := writeSpans(o.outDir, sp.name, map[string][]span{
		"saturated": spans, "replay_batch16": rp16.spans, "replay_batch1": rp1.spans})
	if werr != nil {
		return nil, fmt.Errorf("write spans: %w", werr)
	}
	fmt.Fprintf(o.log, "detail spans=%d written_to=%s\n", len(spans)+len(rp16.spans)+len(rp1.spans), path)
	fmt.Fprintf(o.log, "detail unloaded slices=%d samples_per_slice=%d lat_p50_slices_us=%.2f\n",
		len(lats), unl.attempted/int64(len(lats)+int(p.warm/unloadedShape.slice)), sliceQuantilesUs(lats, 0.50))
	fmt.Fprintf(o.log, "detail one-op round trip: lat_p50_us=%.3f = replayed layers %.3f (req_encode %.3f req_decode %.3f store %.3f resp_encode %.3f resp_decode %.3f) + rtt_residual %.3f\n",
		p50, replayedUs, rp1.meanUs(spanReqEncode), rp1.meanUs(spanReqDecode), rp1.meanUs(spanStore),
		rp1.meanUs(spanRespEncode), rp1.meanUs(spanRespDecode), p50-replayedUs)
	fmt.Fprintf(o.log, "detail tput untraced=%.0f traced=%.0f\n", untracedTput, tracedTput)
	fmt.Fprintf(o.log, "detail restart open_s=%.4f replayed_records=%d tail_puts=%d log_bytes=%d ckpt_keys=%d ckpt_bytes=%d\n",
		rs.openS, rs.replayed, p.tail, rs.logBytes, rs.ckptKeys, rs.ckptBytes)
	printMetrics(o.log, rep.Metrics)
	return rep, nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
