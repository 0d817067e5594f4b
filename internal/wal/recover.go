package wal

import (
	"fmt"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"

	"repro/internal/value"
	"repro/internal/vfs"
)

// LogFile describes one on-disk log file.
type LogFile struct {
	Path   string
	Worker int
	Gen    uint64
}

// logNameRE matches LogFileName's output. The worker id is zero-padded to
// four digits, not cut to them: ids from 10 000 up print five.
var logNameRE = regexp.MustCompile(`^log-(\d{4,})\.(\d{6})\.wal$`)

// ListLogFilesFS enumerates the log files in dir.
func ListLogFilesFS(fsys vfs.FS, dir string) ([]LogFile, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []LogFile
	for _, e := range ents {
		m := logNameRE.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		worker, _ := strconv.Atoi(m[1]) // out of range parses as MaxInt, which recovery refuses
		gen, _ := strconv.ParseUint(m[2], 10, 64)
		out = append(out, LogFile{Path: filepath.Join(dir, e.Name()), Worker: worker, Gen: gen})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Worker != out[j].Worker {
			return out[i].Worker < out[j].Worker
		}
		return out[i].Gen < out[j].Gen
	})
	return out, nil
}

// ListLogFiles is ListLogFilesFS on the real filesystem.
func ListLogFiles(dir string) ([]LogFile, error) {
	return ListLogFilesFS(vfs.OS{}, dir)
}

// RecoveryResult is the outcome of scanning a log directory.
type RecoveryResult struct {
	// Records holds all surviving records (timestamp <= Cutoff): each
	// worker's in log order, the workers in no particular order. Recovery
	// sorts them by key, then TS, to apply each key's records in increasing
	// version order (§5).
	Records []Record
	// Cutoff is t = min over logs of the log's maximum durable timestamp
	// (§5). Records with larger timestamps were dropped: some worker may not
	// have made them durable, so the highest consistent prefix ends at t.
	// The maximum (not the final record's timestamp) is used because
	// sessions sharing a worker log may interleave appends slightly out of
	// timestamp order, and per-worker clocks only order records per key.
	Cutoff uint64
	// MaxTS is the largest timestamp seen anywhere (before cutoff
	// filtering); the store's clock must resume above it.
	MaxTS uint64
	// MaxGen is the largest log generation present.
	MaxGen uint64
	// MissingLogs counts log files the directory's logset said to expect
	// but that are absent — logs that vanished wholesale, as opposed to
	// workers that never logged (their files exist, possibly empty). A
	// vanished log contributes no constraint to the cutoff, so without
	// this count its loss would be invisible; with it, the operator knows
	// recovery ran against an incomplete directory even if every replay
	// chain happened to validate. Zero when the directory has no
	// (parseable) logset.
	MissingLogs int
}

// RecoverDirFS reads every log file in dir and computes the recovery
// cutoff. Log files are read and parsed concurrently (one goroutine per
// file) so a multi-log restart uses every core, mirroring the paper's
// parallel log replay.
//
// Per the paper, t = min over logs L of max timestamp in L, so that only
// updates every log had made durable (or that precede such updates) are
// replayed. A worker whose current-generation log is empty contributes no
// constraint: it durably logged nothing, so it cannot have acknowledged
// anything that others would depend on.
func RecoverDirFS(fsys vfs.FS, dir string) (*RecoveryResult, error) {
	return RecoverDirAboveFS(fsys, dir, 0)
}

// RecoverDirAboveFS is RecoverDirFS considering only records with
// timestamps above floor for both the surviving set and the cutoff
// computation. The store passes the loaded (manifest-format) checkpoint's
// start timestamp: every record at or below it is fully reflected in the
// checkpoint, so such records neither need replaying nor constitute
// durability evidence — in particular, a reclaimed old-generation log that
// a crash resurrected (its removal was a volatile directory op) holds only
// pre-checkpoint records and must not drag the cutoff below the durable
// post-checkpoint tail of busier logs. MaxTS still reports the maximum over
// all records, floor included, for clock seeding.
func RecoverDirAboveFS(fsys vfs.FS, dir string, floor uint64) (*RecoveryResult, error) {
	files, err := ListLogFilesFS(fsys, dir)
	if err != nil {
		return nil, err
	}
	// Replay rebuilds each value's worker tag from Record.Worker, and the
	// tag is what tells a cross-log handoff from a delta: a log whose id the
	// tag cannot hold is refused, never aliased onto another worker's.
	for _, lf := range files {
		if lf.Worker > value.MaxWorker {
			return nil, fmt.Errorf("%s: worker id exceeds the value worker tag's range (0..%d)", lf.Path, value.MaxWorker)
		}
	}
	res := &RecoveryResult{Cutoff: ^uint64(0)}
	// Read and parse every file concurrently.
	parsed := make([][]Record, len(files))
	errs := make([]error, len(files))
	var wg sync.WaitGroup
	for i, lf := range files {
		wg.Add(1)
		go func(i int, lf LogFile) {
			defer wg.Done()
			b, err := fsys.ReadFile(lf.Path)
			if err != nil {
				errs[i] = err
				return
			}
			recs, err := parseLog(b)
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", lf.Path, err)
				return
			}
			parsed[i] = recs
		}(i, lf)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	// Count logs the directory's logset expected but the listing lacks
	// (see logset.go; no logset means no check).
	if workers, gen, ok := readLogSet(fsys, dir); ok {
		present := make(map[int]bool, workers)
		for _, lf := range files {
			if lf.Gen == gen {
				present[lf.Worker] = true
			}
		}
		for w := 0; w < workers; w++ {
			if !present[w] {
				res.MissingLogs++
			}
		}
	}
	// Concatenate each worker's generations in order (ListLogFilesFS sorts
	// by worker then generation), then treat the result as that worker's
	// single log. Each record is tagged with the worker whose log held it,
	// so replay can rebuild values with their worker tags intact.
	perWorker := map[int][]Record{}
	for i, lf := range files {
		if lf.Gen > res.MaxGen {
			res.MaxGen = lf.Gen
		}
		for j := range parsed[i] {
			parsed[i][j].Worker = lf.Worker
		}
		perWorker[lf.Worker] = append(perWorker[lf.Worker], parsed[i]...)
	}
	constrained := false
	for _, recs := range perWorker {
		logMax := uint64(0)
		for _, r := range recs {
			if r.TS > res.MaxTS {
				res.MaxTS = r.TS // global max: floor does not apply
			}
			if r.TS > floor && r.TS > logMax {
				logMax = r.TS
			}
		}
		if logMax == 0 {
			// Nothing above the floor: this worker's durable records are
			// all superseded by the checkpoint, so — like an empty log —
			// it cannot have acknowledged anything others depend on.
			continue
		}
		if logMax < res.Cutoff {
			res.Cutoff = logMax
		}
		constrained = true
	}
	if !constrained {
		res.Cutoff = 0
	}
	for _, recs := range perWorker {
		for _, r := range recs {
			if r.Op != OpMark && r.TS > floor && r.TS <= res.Cutoff {
				res.Records = append(res.Records, r)
			}
		}
	}
	return res, nil
}

// RecoverDir is RecoverDirFS on the real filesystem.
func RecoverDir(dir string) (*RecoveryResult, error) {
	return RecoverDirFS(vfs.OS{}, dir)
}

// Mark appends a timestamp heartbeat to every log (see OpMark).
func (s *Set) Mark(ts uint64) {
	for _, w := range s.writers {
		b := w.Begin()
		b.Mark(ts)
		b.End()
	}
}
