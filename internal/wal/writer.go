package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/value"
	"repro/internal/vfs"
)

// Writer is one worker's log: an in-memory buffer plus a file, written out
// by a background logging goroutine (§5). A put encodes its record directly
// into the worker-owned append buffer and returns; the flusher swaps that
// buffer with a second one (double-buffering) and writes it out without
// blocking appenders, batching appends to exploit sequential device
// bandwidth and forcing the log to storage at least every FlushInterval.
type Writer struct {
	fsys   vfs.FS
	dir    string
	worker int
	sync   bool

	// mu guards only the append buffer; appenders hold it just long enough
	// to encode a record, never across a file write.
	mu  sync.Mutex
	buf []byte

	// fmu serializes flushers and guards the flush-side state: the second
	// buffer, the file, the generation, and the closed flag. A flush holds
	// fmu across the (possibly slow) file write while appenders keep filling
	// buf under mu. fbufOff marks how much of fbuf a partially-failed write
	// already handed to the file; retrying resumes there so no byte is ever
	// written twice, and a full success resets the offset so the buffer's
	// capacity is preserved for the next swap.
	fmu     sync.Mutex
	fbuf    []byte
	fbufOff int
	f       vfs.File
	gen     uint64
	closed  bool
	// needDirSync records that the current file was created with its
	// directory sync deferred to the Set's batch sync. If that batch sync
	// never ran (a mid-rotation error), the next writeOut performs it
	// before claiming durability — Flush must never acknowledge records
	// into a file whose directory entry a crash could forget.
	needDirSync bool

	// Flush failures must not vanish into the background goroutine: they are
	// counted and the most recent one is kept for Store.FlushStats (a lost
	// group commit is a durability failure even though puts keep succeeding).
	flushErrs atomic.Int64
	lastErr   atomic.Pointer[error]

	// Retry pacing for a sick device: after a failed flush the background
	// flusher waits out an exponentially growing window (retryBase doubling
	// up to retryMaxBackoff, guarded by fmu) before re-attempting, instead of
	// hammering the device every tick while records pile up safely in the
	// append buffer. Foreground flushes (Flush, Rotate, Close) always attempt
	// immediately — a checkpoint or shutdown must not wait out the window.
	// flushRetries counts attempts made while a failure's backoff was
	// pending, foreground or background.
	backoff      time.Duration
	retryAt      time.Time
	flushRetries atomic.Int64
	// bufDrops counts flushed buffers released for having outgrown
	// maxRetainedLogBuf: zero in steady state (see kickLevel); when it
	// climbs with the put rate, puts are paying to regrow their buffers.
	bufDrops atomic.Int64

	// Observability hooks (both nil until Set.Observe): flush latency per
	// non-empty flush, plus flight-recorder events for retries under backoff
	// and outright failures. Guarded by fmu like the rest of the flush state.
	obsHist *obs.Hist
	obsRec  *obs.Recorder

	flushCh chan struct{} // kicks the flusher
	done    chan struct{}
	wg      sync.WaitGroup
}

// DefaultFlushInterval is the paper's 200 ms group-commit bound.
const DefaultFlushInterval = 200 * time.Millisecond

// maxRetainedLogBuf bounds how much buffer space a log keeps across flushes:
// one huge put, or a device that stalls while puts keep arriving, grows a
// buffer transiently, and a flushed buffer found larger than this is
// released, and counted, rather than pinned for the writer's lifetime.
const maxRetainedLogBuf = 1 << 20

// kickLevel is the buffered-bytes level past which an append wakes the
// flusher instead of leaving it to the interval tick: a quarter of the
// retain cap, because a buffer the flusher was woken for must never be the
// one it discards. append grows a buffer a quarter at a time, so one that
// has just crossed kickLevel has a capacity near a third of the cap, and
// the flusher has until it triples to swap it out. With the two levels equal
// (PR 14 to 21) every kicked flush found its buffer past the cap and dropped
// it, and the next megabyte of records regrew one from nothing: five bytes
// allocated and copied per byte logged.
const kickLevel = maxRetainedLogBuf / 4

// retryBase and retryMaxBackoff bound the background flusher's retry pacing
// after a failed flush: the wait doubles from retryBase per consecutive
// failure and caps at retryMaxBackoff.
const (
	retryBase       = 50 * time.Millisecond
	retryMaxBackoff = 5 * time.Second
)

// newWriter opens (creating or appending) the generation-gen log file for a
// worker.
func newWriter(fsys vfs.FS, dir string, worker int, gen uint64, syncWrites bool, flushEvery time.Duration, dirSync bool) (*Writer, error) {
	if flushEvery <= 0 {
		flushEvery = DefaultFlushInterval
	}
	w := &Writer{
		fsys:    fsys,
		dir:     dir,
		worker:  worker,
		sync:    syncWrites,
		gen:     gen,
		flushCh: make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	if err := w.openFile(dirSync); err != nil {
		return nil, err
	}
	w.wg.Add(1)
	go w.flushLoop(flushEvery)
	return w, nil
}

// LogFileName names worker w's generation-g log file.
func LogFileName(worker int, gen uint64) string {
	return fmt.Sprintf("log-%04d.%06d.wal", worker, gen)
}

// openFile opens (creating if needed) the current generation's file. When
// dirSync is false the caller batches one directory sync for several
// creations (OpenSetFS, Set.Rotate) instead of paying one per file.
func (w *Writer) openFile(dirSync bool) error {
	path := filepath.Join(w.dir, LogFileName(w.worker, w.gen))
	f, err := w.fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return err
	}
	if size == 0 {
		if _, err := f.Write(fileMagic); err != nil {
			f.Close()
			return err
		}
		// Make the file's existence durable before anything is logged
		// through it: a synced record in a file whose directory entry a
		// crash forgets is a lost acknowledged write. (The magic itself is
		// covered by the first data flush's sync.)
		if dirSync {
			if err := w.fsys.SyncDir(w.dir); err != nil {
				f.Close()
				return err
			}
		} else {
			w.needDirSync = true
		}
	}
	w.f = f
	return nil
}

// Batch is an open append to one worker's log: the buffer lock, taken once
// by Begin and held until End, and every put record form encoded inside it
// straight into the worker-owned buffer, in call order. One record or
// sixteen, an append never blocks on storage; durability arrives with the
// next flush (group commit). In each form ttl selects the op that carries
// expiry (OpPutTTL/OpInsertTTL), a zero expiry included.
type Batch struct{ w *Writer }

// Begin opens a batch. The caller must End it, and must not block between.
func (w *Writer) Begin() Batch {
	w.mu.Lock()
	return Batch{w}
}

// Put appends a delta: the columns one put wrote, chained to prev, the
// version of the value it was applied over (see AppendPut).
func (b Batch) Put(ts, prev uint64, key []byte, puts []value.ColPut, ttl bool, expiry uint64) {
	b.w.buf = appendRecord(b.w.buf, ts, prev, putOp(OpPut, ttl), key, puts, nil, expiry)
}

// Insert appends a put that executed against an absent or lazily-expired
// base: a chain anchor by op (see OpInsert), with no prev link.
func (b Batch) Insert(ts uint64, key []byte, puts []value.ColPut, ttl bool, expiry uint64) {
	b.w.buf = appendRecord(b.w.buf, ts, 0, putOp(OpInsert, ttl), key, puts, nil, expiry)
}

// Anchor appends a column-complete chain anchor (see Record.Prev): every
// column of v, the value the put published, read in place, with prev == 0.
func (b Batch) Anchor(ts uint64, key []byte, v *value.Value, ttl bool, expiry uint64) {
	b.w.buf = appendRecord(b.w.buf, ts, 0, putOp(OpPut, ttl), key, nil, v, expiry)
}

// End closes the batch and wakes the flusher if the buffer has grown large.
func (b Batch) End() {
	n := len(b.w.buf)
	b.w.mu.Unlock()
	if n < kickLevel {
		return
	}
	select {
	case b.w.flushCh <- struct{}{}:
	default:
	}
}

// putOp is op, or with ttl its expiry-carrying twin.
func putOp(op Op, ttl bool) Op {
	switch {
	case !ttl:
		return op
	case op == OpInsert:
		return OpInsertTTL
	}
	return OpPutTTL
}

// append is a batch of one record of any op. Every Append* form is this.
func (w *Writer) append(ts, prev uint64, op Op, key []byte, puts []value.ColPut, expiry uint64) {
	b := w.Begin()
	w.buf = appendRecord(w.buf, ts, prev, op, key, puts, nil, expiry)
	b.End()
}

// AppendPut queues a put record.
//
// prev is the version of the value the put was applied over, read under the
// same border-lock critical section that drew ts. Pass prev == 0 only for a
// chain anchor: a record whose puts carry every column of the value it
// published, so replay can apply it as a replacement (see Record.Prev).
func (w *Writer) AppendPut(ts, prev uint64, key []byte, puts []value.ColPut) {
	w.append(ts, prev, OpPut, key, puts, 0)
}

// AppendInsert queues an insert record (see Batch.Insert).
func (w *Writer) AppendInsert(ts uint64, key []byte, puts []value.ColPut) {
	w.append(ts, 0, OpInsert, key, puts, 0)
}

// AppendRemove queues a remove record.
func (w *Writer) AppendRemove(ts uint64, key []byte) {
	w.append(ts, 0, OpRemove, key, nil, 0)
}

// AppendMark queues a timestamp heartbeat (see OpMark). The caller asserts
// every record this worker acknowledged with a timestamp <= ts has already
// been appended.
func (w *Writer) AppendMark(ts uint64) {
	w.append(ts, 0, OpMark, nil, nil, 0)
}

// Append queues r in the log buffer; see AppendPut. Retained for callers
// that already hold a Record (marks, tests). r.Prev is written as given.
func (w *Writer) Append(r *Record) {
	w.append(r.TS, r.Prev, r.Op, r.Key, r.Puts, r.Expiry)
}

// Flush writes buffered records to the file and, when sync is enabled,
// forces them to storage. Appenders are blocked only for the buffer swap,
// not for the file write.
func (w *Writer) Flush() error {
	w.fmu.Lock()
	defer w.fmu.Unlock()
	return w.flushLocked()
}

// flushLocked swaps the append buffer with the (normally empty) flush
// buffer and writes the swapped-out contents. A failed write keeps the
// batch in the flush buffer and retries it before taking more records, so
// a transient device error loses nothing and log order always matches
// append order. Caller holds fmu.
func (w *Writer) flushLocked() error {
	if w.backoff > 0 {
		// A prior flush failed and its backoff window is (or was) pending:
		// this attempt is a retry, whatever its outcome.
		w.flushRetries.Add(1)
		w.obsRec.Record(w.worker, obs.EvFlushRetry, uint64(w.worker), uint64(w.backoff))
	}
	if w.fbufOff < len(w.fbuf) {
		// A previous flush failed; drain its remaining bytes first.
		if err := w.writeOut(); err != nil {
			return err
		}
	}
	w.mu.Lock()
	w.buf, w.fbuf = w.fbuf[:0], w.buf
	w.mu.Unlock()
	if len(w.fbuf) == 0 {
		return nil // nothing new: an empty flush is not a latency sample
	}
	var start time.Time
	if w.obsHist != nil {
		start = time.Now()
	}
	err := w.writeOut()
	if w.obsHist != nil {
		w.obsHist.Record(w.worker, time.Since(start))
	}
	return err
}

// writeOut writes the flush buffer's unwritten tail to the file, retaining
// exactly the bytes the file did not take: a partial write (ENOSPC and
// friends) advances the offset past the written prefix, so the retry
// continues mid-stream instead of splicing duplicate bytes into the record
// framing. Caller holds fmu.
func (w *Writer) writeOut() error {
	if w.fbufOff >= len(w.fbuf) {
		return nil
	}
	if w.f == nil {
		return w.noteErr(errors.New("wal: log file unavailable"))
	}
	if w.needDirSync {
		// The batch directory sync that should have covered this file's
		// creation never succeeded; self-heal before making any record
		// durable through it.
		if err := w.fsys.SyncDir(w.dir); err != nil {
			return w.noteErr(err)
		}
		w.needDirSync = false
	}
	n, err := w.f.Write(w.fbuf[w.fbufOff:])
	w.fbufOff += n
	if err != nil {
		return w.noteErr(err)
	}
	w.fbufOff = 0
	if cap(w.fbuf) > maxRetainedLogBuf {
		w.fbuf = nil
		w.bufDrops.Add(1)
	} else {
		w.fbuf = w.fbuf[:0]
	}
	if w.sync {
		// The bytes are handed off even if the force fails; the next
		// flush's Sync covers them (rewriting would duplicate records).
		// The buffer was consumed above, so the failure never leaves a
		// stale offset behind to swallow the next batch.
		if err := w.f.Sync(); err != nil {
			return w.noteErr(err)
		}
	}
	w.backoff, w.retryAt = 0, time.Time{}
	return nil
}

// noteErr records a flush failure for FlushStats, grows the retry backoff
// window, and returns the error. Caller holds fmu.
func (w *Writer) noteErr(err error) error {
	w.flushErrs.Add(1)
	w.lastErr.Store(&err)
	if w.backoff == 0 {
		w.backoff = retryBase
	} else if w.backoff < retryMaxBackoff {
		w.backoff *= 2
		if w.backoff > retryMaxBackoff {
			w.backoff = retryMaxBackoff
		}
	}
	w.retryAt = time.Now().Add(w.backoff)
	w.obsRec.Record(w.worker, obs.EvFlushError, uint64(w.worker), uint64(w.flushErrs.Load()))
	return err
}

// flushBackground is the flush loop's entry point: it honors the retry
// backoff window, skipping the attempt while a failed batch's wait is still
// pending (records keep accumulating in the append buffer meanwhile).
func (w *Writer) flushBackground() {
	w.fmu.Lock()
	defer w.fmu.Unlock()
	if !w.retryAt.IsZero() && time.Now().Before(w.retryAt) {
		return
	}
	w.flushLocked() // failures are recorded by noteErr for FlushStats
}

// FlushStats reports how many background or foreground flushes have failed
// and the most recent failure (nil if none).
func (w *Writer) FlushStats() (errs int64, last error) {
	if p := w.lastErr.Load(); p != nil {
		last = *p
	}
	return w.flushErrs.Load(), last
}

// FlushRetries reports how many flush attempts were retries made under a
// pending failure backoff.
func (w *Writer) FlushRetries() int64 { return w.flushRetries.Load() }

// BufferDrops reports how many flushed buffers were released for having
// outgrown the retain cap: a huge put, or a flusher that fell far behind.
func (w *Writer) BufferDrops() int64 { return w.bufDrops.Load() }

func (w *Writer) flushLoop(every time.Duration) {
	defer w.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			w.flushBackground()
		case <-w.flushCh:
			w.flushBackground()
		case <-w.done:
			return
		}
	}
}

func (w *Writer) rotate(gen uint64, dirSync bool) error {
	w.fmu.Lock()
	defer w.fmu.Unlock()
	if err := w.flushLocked(); err != nil {
		return err
	}
	if w.f != nil {
		w.f.Close()
	}
	w.gen = gen
	return w.openFile(dirSync)
}

// dirSynced clears the deferred-directory-sync obligation after the Set's
// batch sync covered this writer's file creation.
func (w *Writer) dirSynced() {
	w.fmu.Lock()
	w.needDirSync = false
	w.fmu.Unlock()
}

// Close flushes and closes the log.
func (w *Writer) Close() error {
	w.fmu.Lock()
	if w.closed {
		w.fmu.Unlock()
		return nil
	}
	w.closed = true
	w.fmu.Unlock()
	close(w.done)
	w.wg.Wait()
	w.fmu.Lock()
	defer w.fmu.Unlock()
	err := w.flushLocked()
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	return err
}

// Set is the collection of per-worker log writers of one store.
type Set struct {
	mu      sync.Mutex
	fsys    vfs.FS
	dir     string
	writers []*Writer
	gen     uint64
}

// OpenSetFS creates (or reopens) n per-worker logs in dir at the given
// starting generation, with all file access through fsys.
func OpenSetFS(fsys vfs.FS, dir string, n int, gen uint64, syncWrites bool, flushEvery time.Duration) (*Set, error) {
	if flushEvery <= 0 {
		flushEvery = DefaultFlushInterval
	}
	s := &Set{fsys: fsys, dir: dir, gen: gen}
	for i := 0; i < n; i++ {
		w, err := newWriter(fsys, dir, i, gen, syncWrites, flushEvery, false)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.writers = append(s.writers, w)
	}
	// One directory sync covers all n creations.
	if err := fsys.SyncDir(dir); err != nil {
		s.Close()
		return nil, err
	}
	for _, w := range s.writers {
		w.dirSynced()
	}
	// The log files are durable; now (and only now) commit the expectation
	// that recovery should find them (see logset.go).
	if err := writeLogSet(fsys, dir, n, gen); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// OpenSet is OpenSetFS on the real filesystem.
func OpenSet(dir string, n int, gen uint64, syncWrites bool, flushEvery time.Duration) (*Set, error) {
	return OpenSetFS(vfs.OS{}, dir, n, gen, syncWrites, flushEvery)
}

// Writer returns worker i's log.
func (s *Set) Writer(i int) *Writer { return s.writers[i%len(s.writers)] }

// Observe arms flush instrumentation on every writer: h records each
// non-empty flush's latency (by worker shard), rec traces flush retries and
// failures. Either may be nil (that instrument stays off). Called once by
// the store right after opening the set; safe against concurrent background
// flushes.
func (s *Set) Observe(h *obs.Hist, rec *obs.Recorder) {
	for _, w := range s.writers {
		w.fmu.Lock()
		w.obsHist, w.obsRec = h, rec
		w.fmu.Unlock()
	}
}

// Workers returns the number of per-worker logs.
func (s *Set) Workers() int { return len(s.writers) }

// Rotate flushes all logs and advances every writer to a new generation,
// returning the new generation number.
func (s *Set) Rotate() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	for _, w := range s.writers {
		if err := w.rotate(s.gen, false); err != nil {
			return 0, err
		}
	}
	// One directory sync covers every writer's new generation file. On any
	// error (here or mid-rotation above) already-rotated writers keep
	// needDirSync set and self-heal on their next flush.
	if err := s.fsys.SyncDir(s.dir); err != nil {
		return 0, err
	}
	for _, w := range s.writers {
		w.dirSynced()
	}
	// Advance the expected log set to the new generation now that the new
	// files' directory entries are durable — and before the caller's
	// checkpoint reclaims the old generation, so the expectation never
	// names files a completed DropBefore has removed.
	if err := writeLogSet(s.fsys, s.dir, len(s.writers), s.gen); err != nil {
		return 0, err
	}
	return s.gen, nil
}

// DropBefore removes all log files with generation < gen. Called after a
// checkpoint that began at generation gen becomes durable.
func (s *Set) DropBefore(gen uint64) error {
	files, err := ListLogFilesFS(s.fsys, s.dir)
	if err != nil {
		return err
	}
	for _, f := range files {
		if f.Gen < gen {
			if err := s.fsys.Remove(f.Path); err != nil {
				return err
			}
		}
	}
	return nil
}

// Flush flushes every writer.
func (s *Set) Flush() error {
	for _, w := range s.writers {
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// FlushStats aggregates flush failures across the set: the total count and
// the most recent error observed on any writer.
func (s *Set) FlushStats() (errs int64, last error) {
	for _, w := range s.writers {
		n, e := w.FlushStats()
		errs += n
		if e != nil {
			last = e
		}
	}
	return errs, last
}

// FlushRetries sums backoff-pending flush retries across the set.
func (s *Set) FlushRetries() (n int64) {
	for _, w := range s.writers {
		n += w.FlushRetries()
	}
	return n
}

// BufferDrops sums released oversized buffers across the set.
func (s *Set) BufferDrops() (n int64) {
	for _, w := range s.writers {
		n += w.BufferDrops()
	}
	return n
}

// Close flushes and closes every writer.
func (s *Set) Close() error {
	var first error
	for _, w := range s.writers {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
