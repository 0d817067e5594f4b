package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/kvstore"
	"repro/internal/value"
	"repro/internal/wal"
)

// restartResult is what the restart section measured.
type restartResult struct {
	openS     []float64 // wall time of each kvstore.Open
	replayed  int       // put records the log held for replay
	parseS    float64   // wal.RecoverDir alone
	loadS     float64   // checkpoint.LoadLatest with a no-op apply
	ckptKeys  int
	ckptBytes int64
	logBytes  int64
}

// dirBytes sums the sizes of the files in dir whose names match pattern.
func dirBytes(dir, pattern string) int64 {
	names, _ := filepath.Glob(filepath.Join(dir, pattern))
	var n int64
	for _, name := range names {
		if fi, err := os.Stat(name); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// restart measures recovery over a fixed amount of work: checkpoint the
// loaded store, log exactly p.tail more puts, shut down cleanly, then Open
// the directory p.reopens times. Whatever the timed phases wrote is behind
// the checkpoint, so a faster write path cannot read as a slower recovery.
// On the way it times the two halves of an Open it can call directly: the
// log parse and the checkpoint load.
// Every Open must bring back every key with values that certify themselves.
func (h *host) restart(seed int64, p plan) (*restartResult, error) {
	h.closeNet()
	res := &restartResult{}
	_, n, err := h.store.CheckpointN(storeWorkers)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	res.ckptKeys = n
	res.ckptBytes = dirBytes(h.dir, "ckpt-*")
	ss := h.store.Session(0)
	err = h.data.tailPuts(h.sp, seed, p.tail, func(key []byte, puts []value.ColPut) { ss.Put(key, puts) })
	ss.Close()
	if err != nil {
		return nil, err
	}
	if err := h.store.Flush(); err != nil {
		return nil, fmt.Errorf("flush: %w", err)
	}
	err = h.store.Close()
	h.store = nil
	if err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	res.logBytes = dirBytes(h.dir, "log-*")

	start := time.Now()
	rr, err := wal.RecoverDir(h.dir)
	if err != nil {
		return nil, fmt.Errorf("parse logs: %w", err)
	}
	res.parseS = time.Since(start).Seconds()
	for i := range rr.Records {
		if rr.Records[i].Op == wal.OpPut || rr.Records[i].Op == wal.OpInsert {
			res.replayed++
		}
	}
	rr = nil
	start = time.Now()
	if _, err := checkpoint.LoadLatest(h.dir, func(checkpoint.Entry) {}); err != nil {
		return nil, fmt.Errorf("load checkpoint: %w", err)
	}
	res.loadS = time.Since(start).Seconds()

	for i := 0; i < p.reopens; i++ {
		// The previous incarnation's heap is garbage by now; collect it so
		// every Open starts from the same heap instead of paying for it.
		runtime.GC()
		start := time.Now()
		st, err := kvstore.Open(storeConfig(h.dir))
		if err != nil {
			return nil, fmt.Errorf("reopen %d: %w", i, err)
		}
		res.openS = append(res.openS, time.Since(start).Seconds())
		verr := h.verifyStore(st)
		if err := st.Close(); err != nil {
			return nil, fmt.Errorf("close after reopen %d: %w", i, err)
		}
		if verr != nil {
			return nil, fmt.Errorf("reopen %d: %w", i, verr)
		}
	}
	return res, nil
}

// verifyStore checks a recovered store key by key: the count matches the
// dataset and every column of every value certifies itself.
func (h *host) verifyStore(st *kvstore.Store) error {
	if rs := st.RecoveryStats(); rs.BrokenChains != 0 || rs.MissingLogs != 0 {
		return fmt.Errorf("recovery saw %d broken chains, %d missing logs", rs.BrokenChains, rs.MissingLogs)
	}
	if got := st.Len(); got != len(h.data.keys) {
		return fmt.Errorf("recovered %d keys, want %d", got, len(h.data.keys))
	}
	eh := st.Epoch().Register()
	defer st.Epoch().Unregister(eh)
	eh.Enter()
	defer eh.Exit()
	var bad error
	seen := 0
	var cols [][]byte
	st.Tree().ScanInto(nil, make([]byte, 0, 64), func(key []byte, v *value.Value) bool {
		seen++
		cols = kvstore.AppendCols(cols[:0], v, nil)
		if !h.data.certifiedCols(key, cols) {
			bad = fmt.Errorf("recovered key %q fails its checksum", key)
			return false
		}
		return true
	})
	if bad == nil && seen != len(h.data.keys) {
		bad = fmt.Errorf("recovery scan saw %d keys, want %d", seen, len(h.data.keys))
	}
	return bad
}
