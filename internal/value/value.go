// Package value implements Masstree's value objects (§4.7 of the paper).
//
// A Value is a version number plus an array of variable-length byte strings
// called columns. Values are immutable once published: a put that modifies a
// subset of columns builds a fresh Value, copying the surviving columns into
// a new object, and swings a single pointer. Concurrent readers therefore
// see either all or none of a multi-column put.
//
// Values are packed: the version, the worker tag, the column offset table,
// and every column's bytes live in one contiguous allocation. This is the
// paper's cache craftiness applied to the write path — a steady-state put
// costs exactly one allocation sized from the request, reading a value walks
// one cache-resident buffer instead of chasing per-column pointers, and the
// garbage collector sees one pointer-free object per value instead of a
// Value header, a column array, and N column slices.
//
// Sequential updates to a value obtain distinct, increasing version numbers;
// the version is written to the log and used during recovery to apply a
// value's updates in order (§5). The worker tag records which worker's
// (loosely synchronized, §5.1) clock issued the version, for log-merge
// diagnostics.
package value

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// Packed layout, little endian. A *Value points at the first byte of one
// []byte allocation:
//
//	 0  version u64
//	 8  size    u32  total bytes of the allocation
//	12  ncols   u32
//	16  worker  u32  worker whose clock issued the version
//	20  expiry  u64  unix nanoseconds after which the value is dead; 0 = never
//	28  end[ncols] u32  cumulative column end offsets into the data section
//	28+4*ncols  column data, concatenated
const (
	offVersion = 0
	offSize    = 8
	offNCols   = 12
	offWorker  = 16
	offExpiry  = 20
	hdrSize    = 28
)

// Value is an immutable multi-column value. It is an opaque header over a
// packed allocation; never embed or copy a Value, only pass *Value.
//
// Values must not be mutated after they are published to a shared data
// structure; all update paths go through Build/Apply, which copy.
type Value struct {
	hdr [hdrSize]byte
}

// ColPut describes a modification of one column. Neither the ColPut slice
// nor the Data bytes are retained by Build/Apply: both are copied into the
// new value's packed allocation.
type ColPut struct {
	Col  int    // column index, >= 0
	Data []byte // new column contents
}

// buf reconstructs the value's whole packed allocation. Safe because every
// *Value points at the first byte of an allocation of exactly the recorded
// size, and the allocation holds no pointers.
func (v *Value) buf() []byte {
	size := binary.LittleEndian.Uint32(v.hdr[offSize:])
	return unsafe.Slice((*byte)(unsafe.Pointer(v)), size)
}

// finish seals a filled packed buffer as a *Value.
func finish(b []byte) *Value {
	return (*Value)(unsafe.Pointer(&b[0]))
}

// colEnd returns the cumulative data end offset of column i (i == -1 is 0).
func colEnd(b []byte, i int) int {
	if i < 0 {
		return 0
	}
	return int(binary.LittleEndian.Uint32(b[hdrSize+4*i:]))
}

// New returns a fresh Value with version 1 holding copies of the given
// columns.
func New(cols ...[]byte) *Value {
	return NewAt(1, cols...)
}

// NewAt is New with an explicit version, used by log replay and checkpoint
// loading to reconstruct the exact pre-crash version numbers.
func NewAt(version uint64, cols ...[]byte) *Value {
	total := hdrSize + 4*len(cols)
	for _, c := range cols {
		total += len(c)
	}
	b := make([]byte, total)
	binary.LittleEndian.PutUint64(b[offVersion:], version)
	binary.LittleEndian.PutUint32(b[offSize:], uint32(total))
	binary.LittleEndian.PutUint32(b[offNCols:], uint32(len(cols)))
	off := 0
	data := b[hdrSize+4*len(cols):]
	for i, c := range cols {
		off += copy(data[off:], c)
		binary.LittleEndian.PutUint32(b[hdrSize+4*i:], uint32(off))
	}
	return finish(b)
}

// Version returns the value's update version number.
//masstree:noalloc
func (v *Value) Version() uint64 {
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(v.hdr[offVersion:])
}

// Worker returns the id of the worker whose clock issued the version (0 for
// values built outside a worker context).
//masstree:noalloc
func (v *Value) Worker() uint32 {
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(v.hdr[offWorker:])
}

// Size returns the value's packed allocation size in bytes (0 for nil). It
// is the figure cache-mode byte accounting charges per value: header, offset
// table, and column data in one number, read straight from the header.
//masstree:noalloc
func (v *Value) Size() int {
	if v == nil {
		return 0
	}
	return int(binary.LittleEndian.Uint32(v.hdr[offSize:]))
}

// ExpiresAt returns the value's expiry time in unix nanoseconds, or 0 for a
// value that never expires. Expiry rides in the packed header so it survives
// the log (wal.OpPutTTL) and checkpoints, and so reads can test it without
// touching any structure beyond the value itself.
//masstree:noalloc
func (v *Value) ExpiresAt() uint64 {
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(v.hdr[offExpiry:])
}

// Expired reports whether the value carries an expiry at or before now
// (unix nanoseconds). A zero expiry never expires.
//masstree:noalloc
func (v *Value) Expired(now int64) bool {
	e := v.ExpiresAt()
	return e != 0 && e <= uint64(now)
}

// NumCols returns the number of columns.
//masstree:noalloc
func (v *Value) NumCols() int {
	if v == nil {
		return 0
	}
	return int(binary.LittleEndian.Uint32(v.hdr[offNCols:]))
}

// Col returns column i, or nil if the column does not exist or is empty.
// The returned slice aliases the value's packed allocation and must not be
// mutated.
//masstree:noalloc
func (v *Value) Col(i int) []byte {
	if v == nil || i < 0 || i >= v.NumCols() {
		return nil
	}
	b := v.buf()
	dataOff := hdrSize + 4*v.NumCols()
	start, end := colEnd(b, i-1), colEnd(b, i)
	if start == end {
		return nil
	}
	return b[dataOff+start : dataOff+end : dataOff+end]
}

// Cols materializes all columns as a fresh slice of subslices of the packed
// allocation. It allocates; alloc-sensitive callers should iterate
// NumCols/Col instead. The column contents must not be mutated.
func (v *Value) Cols() [][]byte {
	if v == nil {
		return nil
	}
	out := make([][]byte, v.NumCols())
	for i := range out {
		out[i] = v.Col(i)
	}
	return out
}

// Bytes returns column 0; it is the natural accessor for single-column
// values, which is how simple get/put workloads use the store.
//masstree:noalloc
func (v *Value) Bytes() []byte { return v.Col(0) }

// colData returns the bytes column i will hold after applying puts to old:
// the last put to i wins, else old's column survives.
func colData(old *Value, puts []ColPut, i int) []byte {
	for j := len(puts) - 1; j >= 0; j-- {
		if puts[j].Col == i {
			return puts[j].Data
		}
	}
	return old.Col(i)
}

// BuildAt builds the packed value holding old's columns with the given
// column modifications applied, at an explicit version with a worker tag.
// old may be nil (pure insert). Everything — surviving columns and put data
// alike — is copied into one allocation sized from the inputs, so neither
// old nor the puts are retained. Column indexes beyond the current width
// grow the column array; intervening columns are empty.
//
// This is the write path's only allocation (§4.7): the kvstore calls it
// under the owning border node's lock with a version from the worker's
// clock. The built value carries no expiry — a put without a TTL makes the
// key persistent, exactly as its log record (wal.OpPut) will replay it.
func BuildAt(old *Value, puts []ColPut, version uint64, worker uint32) *Value {
	return BuildTTLAt(old, puts, version, worker, 0)
}

// BuildTTLAt is BuildAt with an expiry timestamp (unix nanoseconds, 0 =
// never) stored in the packed header. With puts == nil it rebuilds old's
// columns unchanged under the new version and expiry — the Touch operation.
func BuildTTLAt(old *Value, puts []ColPut, version uint64, worker uint32, expiry uint64) *Value {
	width := old.NumCols()
	for _, p := range puts {
		if p.Col < 0 {
			panic(fmt.Sprintf("value: negative column index %d", p.Col))
		}
		if p.Col+1 > width {
			width = p.Col + 1
		}
	}
	total := hdrSize + 4*width
	for i := 0; i < width; i++ {
		total += len(colData(old, puts, i))
	}
	b := make([]byte, total)
	binary.LittleEndian.PutUint64(b[offVersion:], version)
	binary.LittleEndian.PutUint32(b[offSize:], uint32(total))
	binary.LittleEndian.PutUint32(b[offNCols:], uint32(width))
	binary.LittleEndian.PutUint32(b[offWorker:], worker)
	binary.LittleEndian.PutUint64(b[offExpiry:], expiry)
	off := 0
	data := b[hdrSize+4*width:]
	for i := 0; i < width; i++ {
		off += copy(data[off:], colData(old, puts, i))
		binary.LittleEndian.PutUint32(b[hdrSize+4*i:], uint32(off))
	}
	return finish(b)
}

// Apply returns a new Value with the given column modifications applied and
// the version advanced past old's. old may be nil (pure insert). It is
// BuildAt without an explicit version or worker tag.
func Apply(old *Value, puts []ColPut) *Value {
	return BuildAt(old, puts, old.Version()+1, 0)
}

// Equal reports whether two values have identical columns (versions are not
// compared; empty and missing columns are identical). Used by tests.
func Equal(a, b *Value) bool {
	if a.NumCols() != b.NumCols() {
		return false
	}
	for i := 0; i < a.NumCols(); i++ {
		if string(a.Col(i)) != string(b.Col(i)) {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer for debugging.
func (v *Value) String() string {
	if v == nil {
		return "<nil>"
	}
	return fmt.Sprintf("v%d%q", v.Version(), v.Cols())
}
