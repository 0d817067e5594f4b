package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/kvstore"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Replaychain measures what the version-chained log format costs and what it
// buys. Cost side: bytes per logged put (the v2 prev link is 8 bytes the v1
// layout did not carry) and put throughput on the two write paths — the
// same-writer linked put (prev filled from the replaced value, one alloc)
// and the cross-writer handoff put (the record re-logs every column as a
// prev=0 anchor, two allocs). Benefit side: recovery over an intact
// directory replays with zero broken chains, and recovery after one
// worker's log vanishes wholesale — the partial-column replay hole — now
// rolls affected keys back to an anchored prefix and says so in
// broken_chains/missing_logs instead of silently merging columns from
// different versions.
func Replaychain(sc Scale) *Table {
	sc = sc.withDefaults()
	if sc.Workers < 2 {
		sc.Workers = 2 // handoffs need at least two logs
	}
	t := &Table{
		ID:      "replaychain",
		Title:   fmt.Sprintf("version-chained WAL: write cost and accounted recovery, %d keys", sc.Keys),
		Headers: []string{"metric", "value"},
	}
	dir, err := os.MkdirTemp("", "replaychain-bench-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	st, err := kvstore.Open(kvstore.Config{Dir: dir, Workers: sc.Workers})
	if err != nil {
		panic(err)
	}
	ss := openSessions(st, sc.Workers)
	keys := workload.UniqueKeys(workload.Decimal(77), sc.Keys)
	for i, k := range keys {
		ss[i%sc.Workers].PutSimple(k, k)
	}
	if err := st.Flush(); err != nil {
		panic(err)
	}

	logBytes := func() int64 {
		files, err := wal.ListLogFiles(dir)
		if err != nil {
			panic(err)
		}
		var n int64
		for _, f := range files {
			fi, err := os.Stat(f.Path)
			if err != nil {
				panic(err)
			}
			n += fi.Size()
		}
		return n
	}

	// Same-writer linked puts: every record carries prev = the version it
	// replaces, drawn from its own log's history. Single-threaded so the
	// two paths are compared without scheduler noise.
	iters := sc.Ops / 2
	if iters == 0 {
		iters = 1
	}
	before := logBytes()
	start := time.Now()
	for i := 0; i < iters; i++ {
		ss[0].PutSimple(keys[0], keys[0])
	}
	linkedRate := float64(iters) / time.Since(start).Seconds()
	if err := st.Flush(); err != nil {
		panic(err)
	}
	linkedBytes := float64(logBytes()-before) / float64(iters)

	// Cross-writer handoff puts: alternating workers on one key, so every
	// put replaces a value stamped through the other worker's log and must
	// log a column-complete prev=0 anchor.
	before = logBytes()
	start = time.Now()
	for i := 0; i < iters; i++ {
		ss[i%2].PutSimple(keys[0], keys[0])
	}
	handoffRate := float64(iters) / time.Since(start).Seconds()
	if err := st.Flush(); err != nil {
		panic(err)
	}
	handoffBytes := float64(logBytes()-before) / float64(iters)
	closeSessions(ss)
	if err := st.Close(); err != nil {
		panic(err)
	}

	// Recovery over the intact directory: chain validation on every linked
	// record, zero broken chains.
	start = time.Now()
	st2, err := kvstore.Open(kvstore.Config{Dir: dir, Workers: sc.Workers})
	if err != nil {
		panic(err)
	}
	intactDur := time.Since(start)
	intactKeys := st2.Len()
	intactStats := st2.RecoveryStats()
	if err := st2.Close(); err != nil {
		panic(err)
	}

	// The replay hole: worker 0's log vanishes wholesale. Keys whose chains
	// dangle roll back and are counted; nothing mis-merges.
	files, err := wal.ListLogFiles(dir)
	if err != nil {
		panic(err)
	}
	for _, f := range files {
		if f.Worker == 0 {
			if err := os.Remove(f.Path); err != nil {
				panic(err)
			}
		}
	}
	start = time.Now()
	st3, err := kvstore.Open(kvstore.Config{Dir: dir, Workers: sc.Workers})
	if err != nil {
		panic(err)
	}
	vanishDur := time.Since(start)
	vanishKeys := st3.Len()
	vanishStats := st3.RecoveryStats()
	st3.Close()

	// Broken chains at scale: every key anchors in generation 1; in
	// generation 2 a tenth of the keys log a *linked* delta while the rest
	// re-anchor. Generation 1 then vanishes, so the linked tenth dangles —
	// each must roll back (to absence: its anchor is gone) and be counted —
	// while the re-anchored rest replay as replacements.
	dir2, err := os.MkdirTemp("", "replaychain-broken-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir2)
	put1 := []value.ColPut{{Col: 0, Data: []byte("anchored")}}
	set1, err := wal.OpenSet(dir2, 1, 1, true, time.Hour)
	if err != nil {
		panic(err)
	}
	for i, k := range keys {
		set1.Writer(0).AppendInsert(uint64(2*i+1), []byte(k), put1)
	}
	if err := set1.Close(); err != nil {
		panic(err)
	}
	set2, err := wal.OpenSet(dir2, 1, 2, true, time.Hour)
	if err != nil {
		panic(err)
	}
	for i, k := range keys {
		if i%10 == 0 {
			set2.Writer(0).AppendPut(uint64(2*i+2), uint64(2*i+1), []byte(k), put1)
		} else {
			set2.Writer(0).AppendPut(uint64(2*i+2), 0, []byte(k), put1)
		}
	}
	if err := set2.Close(); err != nil {
		panic(err)
	}
	if err := os.Remove(filepath.Join(dir2, wal.LogFileName(0, 1))); err != nil {
		panic(err)
	}
	start = time.Now()
	st4, err := kvstore.Open(kvstore.Config{Dir: dir2, Workers: 1})
	if err != nil {
		panic(err)
	}
	brokenDur := time.Since(start)
	brokenKeys := st4.Len()
	brokenStats := st4.RecoveryStats()
	st4.Close()

	t.Rows = append(t.Rows,
		[]string{"same-writer linked put Mreq/s", mops(linkedRate)},
		[]string{"cross-writer handoff put Mreq/s", mops(handoffRate)},
		[]string{"log bytes/put, linked", fmt.Sprintf("%.1f", linkedBytes)},
		[]string{"log bytes/put, handoff anchor", fmt.Sprintf("%.1f", handoffBytes)},
		[]string{"intact recovery time", intactDur.Round(time.Millisecond).String()},
		[]string{"intact keys recovered", fmt.Sprintf("%d", intactKeys)},
		[]string{"intact broken_chains", fmt.Sprintf("%d", intactStats.BrokenChains)},
		[]string{"vanished-log recovery time", vanishDur.Round(time.Millisecond).String()},
		[]string{"vanished-log keys recovered", fmt.Sprintf("%d", vanishKeys)},
		[]string{"vanished-log broken_chains", fmt.Sprintf("%d", vanishStats.BrokenChains)},
		[]string{"vanished-log missing_logs", fmt.Sprintf("%d", vanishStats.MissingLogs)},
		[]string{"10%-broken-chain recovery time", brokenDur.Round(time.Millisecond).String()},
		[]string{"10%-broken-chain keys recovered", fmt.Sprintf("%d", brokenKeys)},
		[]string{"10%-broken-chain broken_chains", fmt.Sprintf("%d", brokenStats.BrokenChains)},
	)
	t.Notes = append(t.Notes,
		"the prev link is the entire v2 format overhead: a linked put record is 8 bytes larger than the v1 layout",
		"handoff anchors re-log every column; on single-column values the anchor costs one extra alloc and no extra columns",
		"vanished-log recovery must report broken_chains+missing_logs > 0; pre-v2 recovery silently merged partial columns here",
	)
	return t
}
