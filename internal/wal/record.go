// Package wal implements Masstree's logging and log recovery (§5).
//
// Each server query worker owns its own log file and in-memory log buffer.
// A put appends to the worker's buffer and responds to the client without
// forcing the buffer to storage; a background logging goroutine writes out
// batches, forcing logs to storage at least every FlushInterval (200 ms in
// the paper) for safety. Different logs may live on different devices for
// higher total throughput.
//
// Value version numbers and log record timestamps aid recovery. This
// implementation draws both from per-worker loosely synchronized clocks
// (§5.1): a worker's clock lives on its own cache line, is assigned under
// the owning border node's lock, and is lifted past the replaced value's
// version (and, for inserts, past every prior remove's timestamp), so each
// key's log records are strictly ordered by timestamp even across
// remove/re-insert cycles and across workers. Timestamps in one log are not
// globally ordered against other logs, and concurrent appenders sharing a
// log may interleave slightly out of order, so recovery computes the cutoff
// t = min over logs of that log's maximum durable timestamp, drops records
// beyond t, and replays each key's surviving updates in increasing version
// order.
//
// The cutoff alone cannot defend against a log vanishing wholesale: a
// missing log contributes no constraint to the minimum, so a partial-column
// put logged elsewhere could be merged onto a base that never saw the
// vanished log's delta. The log format (MTLOG2) therefore has two put forms.
// An insert (OpInsert/OpInsertTTL) is a record whose columns make the
// published value on their own (see OpInsert): a chain anchor with no link,
// replayed as a replacement. Any other put is a delta (OpPut/OpPutTTL)
// chained to the version of the value it was applied over (Record.Prev),
// applied only when that link matches the replayed state, so a vanished
// predecessor is detected (the key rolls back to its last anchored prefix)
// instead of silently mis-merged. An OpPut with Prev == 0, the anchor older
// MTLOG2 logs hold, still replays as a replacement. The companion logset file
// records which log files recovery should expect, distinguishing "this
// worker never logged" from "this worker's log vanished".
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/value"
)

// Op identifies a logged operation.
type Op uint8

const (
	// OpPut logs a partial delta: the columns a put wrote over a live base,
	// chained to that base's version (Record.Prev).
	OpPut Op = 1
	// OpRemove logs a key removal.
	OpRemove Op = 2
	// OpMark is a timestamp heartbeat carrying no data. A clean shutdown
	// writes one to every log at the store's current clock so the recovery
	// cutoff t = min over logs of the last timestamp does not discard the
	// durable tail of logs that happened to receive more traffic. After a
	// crash, logs without a trailing mark make the cutoff conservative,
	// exactly as the paper intends: an update beyond t may causally depend
	// on an update some other log never made durable.
	OpMark Op = 3
	// OpPutTTL is OpPut with an expiry timestamp (unix nanoseconds) in the
	// payload, so replay rebuilds the value with its TTL intact.
	OpPutTTL Op = 4
	// OpInsert is a put whose record makes the published value on its own,
	// so replay applies it as a REPLACEMENT, not a merge: a put that
	// executed against an absent (or lazily-expired) base, a put listing
	// columns 0..n-1 in order of an n-column value, or a cross-log handoff
	// carrying every column of the value it published. This is what
	// keeps cache mode's clean drops sound: evictions and expiry sweeps
	// write no record, so the records of a dropped value may survive in the
	// log — and the first write after the drop executes against nil. Were
	// it replayed as a merge (like OpPut), recovery would fold the dropped
	// value's stale columns into the new one, fabricating a mixed state no
	// serial execution produced. The insert record anchors the key's replay
	// chain instead: whatever stale records precede it, the version guard
	// applies them first and the insert then replaces them wholesale,
	// reproducing exactly the value the live store built. (A clean drop
	// with no subsequent write may still replay the dropped key back, which
	// cache semantics permit; the store re-expires or re-evicts it.)
	OpInsert Op = 5
	// OpInsertTTL is OpInsert carrying an expiry, the insert counterpart of
	// OpPutTTL. A Touch logs one carrying every column of the republished
	// value, so the record stands alone even if the log holding the key's
	// original put is lost wholesale.
	OpInsertTTL Op = 6
)

// IsInsert reports whether op replays as a replacement (see OpInsert).
func (op Op) IsInsert() bool { return op == OpInsert || op == OpInsertTTL }

// HasExpiry reports whether op's payload carries an expiry timestamp.
func (op Op) HasExpiry() bool { return op == OpPutTTL || op == OpInsertTTL }

// HasPrev reports whether op's payload carries a prev-version chain link.
// Only the merge ops need one: inserts replace their base by definition, so
// they are chain anchors without spending the eight bytes.
func (op Op) HasPrev() bool { return op == OpPut || op == OpPutTTL }

// Record is one logged update.
type Record struct {
	TS  uint64 // timestamp == value version (global monotonic counter)
	Op  Op
	Key []byte
	// Prev is the version of the value this delta was applied over — the
	// chain link that lets replay prove the record's base was rebuilt
	// before merging the record's partial columns onto it. Serialized only
	// for OpPut/OpPutTTL; an insert needs none. Prev == 0 on an OpPut is
	// the column-complete anchor of older MTLOG2 logs, which replay applies
	// as a replacement; the store never writes one.
	Prev uint64
	// Worker is the id of the log file the record was recovered from. It is
	// not serialized (the filename carries it); RecoverDirAboveFS fills it
	// so replay can rebuild each value's worker tag, keeping cross-log
	// handoff detection exact across a restart.
	Worker int
	Puts   []value.ColPut // column modifications; nil for OpRemove
	Expiry uint64         // unix nanoseconds, OpPutTTL only; 0 = never
}

// fileMagic begins every log file (OpPut/OpPutTTL payloads carry a
// prev-version chain link).
var fileMagic = []byte("MTLOG2\n")

// ErrCorrupt reports a log whose header is invalid.
var ErrCorrupt = errors.New("wal: corrupt log")

// appendRecord serializes a record onto buf in place — no intermediate
// payload buffer, so a warmed log buffer makes appends allocation-free.
// Layout (little endian):
//
//	crc32(payload) u32 | payloadLen u32 | payload
//	payload: ts u64 | op u8 | [prev u64, OpPut/OpPutTTL only] |
//	         [expiry u64, OpPutTTL/OpInsertTTL only] | keyLen u32 | key |
//	         ncols u16 | { col u16 | dataLen u32 | data }*
//
// The columns are puts, or with full non-nil every column of that packed
// value read in place (a column-complete record: no ColPut slice is built to
// say what the value already holds). The crc and length are backfilled after
// the payload is written. A torn tail write invalidates the crc, so recovery
// stops cleanly at the last complete record (group commit may lose the
// unforced tail, which the paper accepts — those puts were never durable).
func appendRecord(buf []byte, ts, prev uint64, op Op, key []byte, puts []value.ColPut, full *value.Value, expiry uint64) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // crc + len, backfilled below
	buf = binary.LittleEndian.AppendUint64(buf, ts)
	buf = append(buf, byte(op))
	if op.HasPrev() {
		buf = binary.LittleEndian.AppendUint64(buf, prev)
	}
	if op.HasExpiry() {
		buf = binary.LittleEndian.AppendUint64(buf, expiry)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	if full != nil {
		n := full.NumCols()
		buf = binary.LittleEndian.AppendUint16(buf, value.Count16(n, "log record"))
		for i := 0; i < n; i++ {
			buf = appendCol(buf, i, full.Col(i))
		}
	} else {
		buf = binary.LittleEndian.AppendUint16(buf, value.Count16(len(puts), "log record"))
		for _, p := range puts {
			buf = appendCol(buf, p.Col, p.Data)
		}
	}
	payload := buf[start+8:]
	binary.LittleEndian.PutUint32(buf[start:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(buf[start+4:], uint32(len(payload)))
	return buf
}

func appendCol(buf []byte, col int, data []byte) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(col))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(data)))
	return append(buf, data...)
}

// parseRecord decodes one record from b, returning the record and the number
// of bytes consumed. A short or corrupt prefix returns n == 0.
func parseRecord(b []byte) (Record, int) {
	if len(b) < 8 {
		return Record{}, 0
	}
	crc := binary.LittleEndian.Uint32(b)
	plen := int(binary.LittleEndian.Uint32(b[4:]))
	if plen < 15 || len(b) < 8+plen {
		return Record{}, 0
	}
	payload := b[8 : 8+plen]
	if crc32.ChecksumIEEE(payload) != crc {
		return Record{}, 0
	}
	var r Record
	r.TS = binary.LittleEndian.Uint64(payload)
	r.Op = Op(payload[8])
	p := 9
	if r.Op.HasPrev() {
		if p+8 > plen {
			return Record{}, 0
		}
		r.Prev = binary.LittleEndian.Uint64(payload[p:])
		p += 8
	}
	if r.Op.HasExpiry() {
		if p+8 > plen {
			return Record{}, 0
		}
		r.Expiry = binary.LittleEndian.Uint64(payload[p:])
		p += 8
	}
	if p+4 > plen {
		return Record{}, 0
	}
	klen := int(binary.LittleEndian.Uint32(payload[p:]))
	p += 4
	if p+klen+2 > plen {
		return Record{}, 0
	}
	r.Key = append([]byte(nil), payload[p:p+klen]...)
	p += klen
	ncols := int(binary.LittleEndian.Uint16(payload[p:]))
	p += 2
	for i := 0; i < ncols; i++ {
		if p+6 > plen {
			return Record{}, 0
		}
		col := int(binary.LittleEndian.Uint16(payload[p:]))
		dlen := int(binary.LittleEndian.Uint32(payload[p+2:]))
		p += 6
		if p+dlen > plen {
			return Record{}, 0
		}
		data := append([]byte(nil), payload[p:p+dlen]...)
		p += dlen
		r.Puts = append(r.Puts, value.ColPut{Col: col, Data: data})
	}
	if p != plen {
		return Record{}, 0
	}
	return r, 8 + plen
}

// parseLog decodes all complete records from a log file's contents
// (including the file header). It stops silently at the first torn or
// corrupt record, which recovery treats as the end of the durable log.
//
// A file holding only a (possibly torn) prefix of the header magic parses as
// an empty log: a crash right after log creation can leave the directory
// entry durable with none of the file's bytes — that worker durably logged
// nothing, which must not brick recovery. Any other header reports
// corruption, that of a log written before records were chained included.
func parseLog(b []byte) ([]Record, error) {
	h := min(len(b), len(fileMagic))
	if string(b[:h]) != string(fileMagic[:h]) {
		return nil, fmt.Errorf("%w: bad file magic", ErrCorrupt)
	}
	b = b[h:]
	var out []Record
	for len(b) > 0 {
		r, n := parseRecord(b)
		if n == 0 {
			break
		}
		out = append(out, r)
		b = b[n:]
	}
	return out, nil
}
