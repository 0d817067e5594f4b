// Package backend models the slow source of truth a cache fronts: a
// pluggable read-through/write-behind tier whose failure modes — latency,
// errors, hangs, total outage — are first-class inputs rather than
// afterthoughts. The kvstore loader (Session.GetOrLoad) consults a Backend
// on miss, installs what it loads, and spills evicted values back through
// Store; everything between the store and the backend's raw implementation
// is the Wrap decorator stack (timeouts, retries, a concurrency limiter,
// and a circuit breaker), so degradation policy lives in one place and is
// observable through Stats.
//
// Contract: Load returns (payload, ttl, ok, err). ok == false with a nil
// error is an authoritative miss — the key does not exist upstream — which
// callers may negative-cache; an error means the backend could not answer
// and says nothing about the key. A ttl of 0 means the loaded value does
// not expire. Store and Delete are best-effort spill operations: the cache
// remains correct if they fail (the value is simply lost to the backend),
// which is the write-behind ordering caveat documented in doc.go.
//
// Payloads are opaque bytes. Multi-column values round-trip through
// EncodeCols/DecodeCols, a dense length-prefixed packing, so a spilled
// value reloads with its column structure intact.
package backend

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/breaker"
)

// Backend is the source-of-truth interface behind the cache. Implementations
// must be safe for concurrent use. Calls honor ctx cancellation and
// deadlines; the Wrap decorator arms per-call timeouts on top.
type Backend interface {
	// Load fetches key's payload. ok false with err nil is an authoritative
	// "key absent upstream"; err non-nil means the backend could not answer.
	Load(ctx context.Context, key []byte) (payload []byte, ttl time.Duration, ok bool, err error)
	// Store writes key's payload, replacing any previous one.
	Store(ctx context.Context, key, payload []byte) error
	// Delete removes key upstream. Deleting an absent key is not an error.
	Delete(ctx context.Context, key []byte) error
}

// ErrUnavailable is returned without touching the backend when the circuit
// breaker is open (or a half-open probe is already in flight): the backend
// is presumed down and callers should degrade — serve stale, fail fast —
// rather than queue behind a dead dependency.
var ErrUnavailable = errors.New("backend: unavailable (circuit open)")

// Stats is a point-in-time snapshot of a wrapped backend's health counters.
// The server exposes these through the stats op (loads, load_errors,
// breaker_state, breaker_opens, ...).
type Stats struct {
	Loads   uint64 // completed Load calls (success or authoritative miss)
	Stores  uint64 // completed Store calls
	Deletes uint64 // completed Delete calls
	Errors  uint64 // calls that failed after exhausting retries
	Retries uint64 // individual retry attempts across all calls

	Rejected     uint64        // calls refused outright while the breaker was open
	BreakerState breaker.State // 0 closed, 1 open, 2 half-open
	BreakerOpens uint64        // transitions into open, failed probes included
}

// EncodeCols packs a multi-column record into one payload: a uvarint column
// count followed by each column as uvarint length + bytes. A nil column and
// an empty column both decode as empty (matching value semantics, where the
// two are indistinguishable).
func EncodeCols(cols [][]byte) []byte {
	n := binary.MaxVarintLen64
	for _, c := range cols {
		n += binary.MaxVarintLen64 + len(c)
	}
	return AppendCols(make([]byte, 0, n), cols)
}

// AppendCols is EncodeCols appending to dst.
func AppendCols(dst []byte, cols [][]byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(cols)))
	for _, c := range cols {
		dst = binary.AppendUvarint(dst, uint64(len(c)))
		dst = append(dst, c...)
	}
	return dst
}

// maxPayloadCols bounds a decoded payload's column count, rejecting
// corrupt headers before they size an allocation.
const maxPayloadCols = 1 << 16

// DecodeCols unpacks an EncodeCols payload. The returned column slices
// alias payload; callers that retain them must not mutate the payload.
func DecodeCols(payload []byte) ([][]byte, error) {
	n, used := binary.Uvarint(payload)
	if used <= 0 || n > maxPayloadCols {
		return nil, fmt.Errorf("backend: corrupt payload header")
	}
	cols := make([][]byte, n)
	rest := payload[used:]
	for i := range cols {
		l, used := binary.Uvarint(rest)
		if used <= 0 || uint64(len(rest)-used) < l {
			return nil, fmt.Errorf("backend: corrupt payload column %d", i)
		}
		cols[i] = rest[used : used+int(l) : used+int(l)]
		rest = rest[used+int(l):]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("backend: %d trailing payload bytes", len(rest))
	}
	return cols, nil
}
