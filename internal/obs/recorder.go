package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Kind tags a flight-recorder event. The recorder traces *internal*
// transitions — the decisions a counter can only count — so the set below
// names the moments a post-mortem wants: why the breaker opened, which keys
// eviction chose, how a checkpoint committed, where replay rolled a chain
// back, when a cluster node's health changed.
type Kind uint8

const (
	EvNone Kind = iota

	// Backend tier.
	EvBreakerOpen // arg1 = the breaker's cumulative open count (backend.Stats.BreakerOpens)
	EvBreakerHeal // arg1 = breaker state healed into (breaker.State)
	EvLoadError   // arg1 = key hash

	// Cache mode.
	EvEvict  // arg1 = key hash, arg2 = value bytes freed
	EvExpire // arg1 = keys expired this sweep batch

	// WAL.
	EvFlushRetry // arg1 = worker, arg2 = backoff ns before the retry
	EvFlushError // arg1 = worker, arg2 = consecutive failure count

	// Checkpoint.
	EvCkptBegin  // arg1 = checkpoint timestamp
	EvCkptCommit // arg1 = checkpoint timestamp, arg2 = keys written

	// Recovery.
	EvRecoveryPhase // arg1 = RecPhase* code, arg2 = phase duration ns
	EvChainBreak    // arg1 = key hash rolled back during replay
	EvLogMissing    // arg1 = how many expected log files vanished

	// Cluster health.
	EvNodeDown    // arg1 = node index
	EvNodeProbing // arg1 = node index
	EvNodeUp      // arg1 = node index

	numKinds
)

// Recovery phase codes for EvRecoveryPhase's arg1.
const (
	RecPhaseCheckpoint = 1 // checkpoint parts read and parsed
	RecPhaseLogParse   = 2 // log files parsed
	RecPhaseReplay     = 3 // keys' records folded and the tree loaded
)

var kindNames = [numKinds]string{
	EvNone:          "none",
	EvBreakerOpen:   "breaker_open",
	EvBreakerHeal:   "breaker_heal",
	EvLoadError:     "load_error",
	EvEvict:         "evict",
	EvExpire:        "expire",
	EvFlushRetry:    "flush_retry",
	EvFlushError:    "flush_error",
	EvCkptBegin:     "ckpt_begin",
	EvCkptCommit:    "ckpt_commit",
	EvRecoveryPhase: "recovery_phase",
	EvChainBreak:    "chain_break",
	EvLogMissing:    "log_missing",
	EvNodeDown:      "node_down",
	EvNodeProbing:   "node_probing",
	EvNodeUp:        "node_up",
}

// String names the event kind for dumps.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one fixed-size flight-recorder entry. Arg1/Arg2 are
// kind-specific (see the Kind constants); TS is nanoseconds since the Unix
// epoch.
type Event struct {
	TS     int64
	Seq    uint64
	Arg1   uint64
	Arg2   uint64
	Worker int32
	Kind   Kind
}

// recRing is one worker's event ring. A plain mutex, not atomics: every
// event here marks a cold transition (a breaker trip, an eviction decision,
// a checkpoint step), so the lock is uncontended in practice and buys
// race-free dumps for free. The record path still allocates nothing.
type recRing struct {
	mu  sync.Mutex
	seq uint64
	ev  []Event
	_   [24]byte
}

// Recorder is a fixed-size per-worker ring of trace events. Writers append
// to their own worker's ring (older events overwrite in FIFO order); Dump
// merges the rings into one timeline. Record on a nil *Recorder is a no-op:
// a wal.Set opened without Observe holds nil instruments.
type Recorder struct {
	rings []recRing
}

// RingSize is events retained per worker ring.
const RingSize = 512

// NewRecorder builds a recorder with one ring of RingSize events per
// worker.
func NewRecorder(workers int) *Recorder {
	if workers < 1 {
		workers = 1
	}
	r := &Recorder{rings: make([]recRing, workers)}
	for i := range r.rings {
		r.rings[i].ev = make([]Event, RingSize)
	}
	return r
}

// Record traces one event into the worker's ring. Nil-safe no-op.
//
//masstree:noalloc
func (r *Recorder) Record(worker int, k Kind, arg1, arg2 uint64) {
	if r == nil {
		return
	}
	ring := &r.rings[uint(worker)%uint(len(r.rings))]
	now := time.Now().UnixNano()
	ring.mu.Lock()
	ring.ev[ring.seq%uint64(len(ring.ev))] = Event{
		TS:     now,
		Seq:    ring.seq,
		Arg1:   arg1,
		Arg2:   arg2,
		Worker: int32(uint(worker) % uint(len(r.rings))),
		Kind:   k,
	}
	ring.seq++
	ring.mu.Unlock()
}

// Events snapshots every retained event across all rings, oldest first
// (merged by timestamp, per-ring sequence as the tiebreak).
func (r *Recorder) Events() []Event {
	var out []Event
	for i := range r.rings {
		ring := &r.rings[i]
		ring.mu.Lock()
		n := ring.seq
		size := uint64(len(ring.ev))
		start := uint64(0)
		if n > size {
			start = n - size
		}
		for s := start; s < n; s++ {
			out = append(out, ring.ev[s%size])
		}
		ring.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		if out[i].Worker != out[j].Worker {
			return out[i].Worker < out[j].Worker
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// WriteTo renders the merged timeline as text, one event per line:
//
//	2026-08-07T01:02:03.000000004Z w3 evict arg1=deadbeef arg2=128
//
// It reports the byte count written and the first write error.
func (r *Recorder) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, e := range r.Events() {
		n, err := fmt.Fprintf(w, "%s w%d %-14s arg1=%x arg2=%d\n",
			time.Unix(0, e.TS).UTC().Format("2006-01-02T15:04:05.000000000Z"),
			e.Worker, e.Kind.String(), e.Arg1, e.Arg2)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// DumpString renders the merged timeline as text for test-failure logs.
func (r *Recorder) DumpString() string {
	var b strings.Builder
	r.WriteTo(&b)
	if b.Len() == 0 {
		return "(flight recorder empty)\n"
	}
	return b.String()
}
