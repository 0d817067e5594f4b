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
// The packing is as narrow as each value's own data allows (the layout table
// below): nothing derivable is stored, an expiry costs bytes only on a value
// that has one, column offsets are one byte wide until the columns outgrow
// them, and the commonest shapes of all — a few short columns of one width,
// the paper's 8-byte value and MYCSB's ten 4-byte columns — take a compact
// 8-byte header with no offsets at all. Every key pays for one value, so
// bytes here are bytes per record. The layout is private to this file; logs,
// checkpoints and wire responses are built column by column through
// NumCols/Col, and the version is a full u64 to all of them.
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
// []byte allocation, which starts with a flags byte whose bit 1 says which of
// two headers follows. The builders pick the form from what they build: a
// value of 1 to 16 columns that all have the same length of at most 63 bytes,
// at a version below 2^44 by a worker tag of at most 255, is compact; every
// other value is general.
//
// Compact:
//
//	0  flags   u8   bit 0    an expiry follows the header
//	                bit 1    1: compact
//	                bits 2-7 every column's length, the width
//	1  ncols   u4   the column count less one, in the low four bits
//	   version u44  in the rest of bytes 1-6
//	7  worker  u8
//	8  expiry  u64  as in the general form; present only when bit 0 is set
//	8|16  the columns' bytes: column i ends at (i+1)*width
//
// General:
//
//	 0  flags   u8   bit 0    an expiry follows the header
//	                 bit 1    0: general
//	                 bits 2-3 log2 of a column end's width in bytes (0, 1, 2)
//	                 bits 4-7 reserved, zero
//	 1  version u64  full width: CasPut carries it on the wire
//	 9  worker  u16  worker whose clock issued the version
//	11  ncols   u16  the column count, at most MaxCol+1
//	13  expiry  u64  unix nanoseconds after which the value is dead; present
//	                 only when flags bit 0 is set (absent = never)
//	13|21  end[ncols]  cumulative column end offsets into the data section,
//	                   1, 2 or 4 bytes each: as narrow as the last one allows
//	then   column data, concatenated
//
// The allocation's size is not stored: it is where the last column ends.
// An 8-byte single column packs to 8+8 = 16 bytes (Go's 16-byte size class,
// which never crosses a cache line), ten 4-byte columns to 8+40 = 48 (the
// 48-byte class).
const (
	offFlags   = 0
	offVersion = 1
	offWorker  = 9
	offNCols   = 11
	hdrSize    = 13

	flagExpiry     = 1 << 0
	flagCompact    = 1 << 1
	flagEndShift   = 2 // bits 2-3, general
	flagWidthShift = 2 // bits 2-7, compact

	// compactSize is the compact header's size, compactVersionShift where in
	// it the version starts, and the compactMax figures the largest its
	// fields hold.
	compactSize         = 8
	compactVersionShift = 12
	compactMaxCols      = 1 << 4
	compactMaxWidth     = 1<<6 - 1
	compactMaxVersion   = 1<<44 - 1
	compactMaxWorker    = 1<<8 - 1
	// compactEnd is the end width layout reports for a compact value: its
	// columns end at multiples of the width in the flags byte.
	compactEnd = 3

	expirySize = 8

	// MaxWorker is the largest worker tag the layout holds. A store must
	// not run, or replay the log of, a worker beyond it: an aliased tag
	// would hide a cross-log handoff from the write kernel.
	MaxWorker = 1<<16 - 1
	// maxCols and maxData are the layout's other two limits: as many
	// columns as the formats can count, and as many bytes as a 4-byte end
	// can reach, far past wire.MaxMessage.
	maxCols = MaxCol + 1
	maxData = 1<<32 - 1

	// MaxCol is the highest column a put from outside may name. The log
	// record, the checkpoint entry and the wire response each count a
	// value's columns in a u16, and a put to column 65 535 makes 65 536 of
	// them — one more than any of the three can say. The wire refuses that
	// column as a malformed request; the three writers convert through
	// Count16, so a value that reached them some other way is a loud bug
	// and never a record that claims no columns.
	MaxCol = 1<<16 - 2
)

// Count16 is the checked conversion of a column count to the u16 the named
// format stores it in.
func Count16(ncols int, format string) uint16 {
	if ncols > MaxCol+1 {
		panic(fmt.Sprintf("value: %d columns do not fit the u16 count of a %s", ncols, format))
	}
	return uint16(ncols)
}

// Value is an immutable multi-column value. It is an opaque header over a
// packed allocation; never embed or copy a Value, only pass *Value.
//
// Values must not be mutated after they are published to a shared data
// structure; all update paths go through Build/Apply, which copy.
//
// The declared type is the compact header, the smallest allocation the
// layout makes: a compact value of empty columns is those 8 bytes alone,
// which the runtime may place at byte 8 of a 16-byte block, so a larger type
// would claim bytes past the allocation's end. head reads the rest of a
// larger allocation.
type Value struct {
	hdr [compactSize]byte
}

// ColPut describes a modification of one column. Neither the ColPut slice
// nor the Data bytes are retained by Build/Apply: both are copied into the
// new value's packed allocation.
type ColPut struct {
	Col  int    // column index, >= 0
	Data []byte // new column contents
}

// layout decodes the header: where the column-end table starts, where the
// column data starts, the log2 of an end's width (compactEnd for a compact
// value, whose ends colEnd computes from the width in the flags byte), and
// the column count.
//
//masstree:noalloc
func (v *Value) layout() (table, data int, shift uint, ncols int) {
	f := v.hdr[offFlags]
	if f&flagCompact != 0 {
		data = compactSize + int(f&flagExpiry)*expirySize
		return data, data, compactEnd, int(v.hdr[1]&(compactMaxCols-1)) + 1
	}
	table = hdrSize + int(f&flagExpiry)*expirySize
	shift = uint(f>>flagEndShift) & 3
	ncols = int(binary.LittleEndian.Uint16(v.head(hdrSize)[offNCols:]))
	return table, table + ncols<<shift, shift, ncols
}

// head reconstructs the first n bytes of the value's packed allocation.
// Safe for any n up to the size the header and the last column end add up
// to: every *Value points at the first byte of an allocation of exactly
// that size, and the allocation holds no pointers.
//
//masstree:noalloc
func (v *Value) head(n int) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(v)), n)
}

// colEnd returns the cumulative data end offset of column i (i == -1 is 0).
//
//masstree:noalloc
func colEnd(b []byte, table int, shift uint, i int) int {
	if i < 0 {
		return 0
	}
	switch at := table + i<<shift; shift {
	case 0:
		return int(b[at])
	case 1:
		return int(binary.LittleEndian.Uint16(b[at:]))
	case 2:
		return int(binary.LittleEndian.Uint32(b[at:]))
	default: // compactEnd
		return (i + 1) * int(b[offFlags]>>flagWidthShift)
	}
}

// putColEnd stores column i's end. No end exceeds the dataLen alloc picked
// shift from, so each conversion here is exact. A compact value's ends follow
// from its width, which alloc has stored already.
func putColEnd(b []byte, table int, shift uint, i, end int) {
	switch at := table + i<<shift; shift {
	case 0:
		b[at] = byte(end)
	case 1:
		binary.LittleEndian.PutUint16(b[at:], uint16(end))
	case 2:
		binary.LittleEndian.PutUint32(b[at:], uint32(end))
	}
}

// sameWidth carries a walk over the column lengths, column i's being n: after
// the last column it holds the length they all share, or -1 if two differ or
// there were none (the walk starts it at -1).
func sameWidth(width, i, n int) int {
	if i == 0 || n == width {
		return n
	}
	return -1
}

// alloc makes the packed allocation for ncols columns holding dataLen bytes
// in all, each width long if width is not -1 (sameWidth), and fills in its
// header; the caller fills the column ends and the data, which start at the
// returned offsets. The form and the end width are picked here, from what is
// built, and nothing is narrowed unchecked: a figure the layout cannot hold
// panics, as a negative column index does.
func alloc(version uint64, worker uint32, expiry uint64, ncols, width, dataLen int) (b []byte, table int, shift uint, data int) {
	if worker > MaxWorker {
		panic(fmt.Sprintf("value: worker tag %d exceeds %d", worker, MaxWorker))
	}
	if ncols > maxCols {
		panic(fmt.Sprintf("value: %d columns exceed %d", ncols, maxCols))
	}
	if uint64(dataLen) > maxData {
		panic(fmt.Sprintf("value: %d column bytes exceed %d", dataLen, maxData))
	}
	var flags byte
	exp := 0
	if expiry != 0 {
		flags, exp = flagExpiry, expirySize
	}
	if width >= 0 && width <= compactMaxWidth && ncols <= compactMaxCols &&
		version <= compactMaxVersion && worker <= compactMaxWorker {
		data = compactSize + exp
		b = make([]byte, data+dataLen)
		flags |= flagCompact | byte(width)<<flagWidthShift
		binary.LittleEndian.PutUint64(b, uint64(flags)|uint64(ncols-1)<<8|version<<compactVersionShift|uint64(worker)<<56)
		table, shift = data, compactEnd
	} else {
		if dataLen > 0xffff {
			shift = 2
		} else if dataLen > 0xff {
			shift = 1
		}
		table = hdrSize + exp
		data = table + ncols<<shift
		b = make([]byte, data+dataLen)
		b[offFlags] = flags | byte(shift<<flagEndShift)
		binary.LittleEndian.PutUint64(b[offVersion:], version)
		binary.LittleEndian.PutUint16(b[offWorker:], uint16(worker))
		binary.LittleEndian.PutUint16(b[offNCols:], uint16(ncols))
	}
	if expiry != 0 { // right after either header
		binary.LittleEndian.PutUint64(b[table-expirySize:], expiry)
	}
	return b, table, shift, data
}

// finish seals a filled packed buffer as a *Value.
func finish(b []byte) *Value {
	return (*Value)(unsafe.Pointer(&b[0]))
}

// New returns a fresh Value with version 1 holding copies of the given
// columns.
func New(cols ...[]byte) *Value {
	return NewAt(1, cols...)
}

// NewAt is New with an explicit version, used by log replay and checkpoint
// loading to reconstruct the exact pre-crash version numbers.
func NewAt(version uint64, cols ...[]byte) *Value {
	total, width := 0, -1
	for i, c := range cols {
		total += len(c)
		width = sameWidth(width, i, len(c))
	}
	b, table, shift, data := alloc(version, 0, 0, len(cols), width, total)
	off := 0
	for i, c := range cols {
		off += copy(b[data+off:], c)
		putColEnd(b, table, shift, i, off)
	}
	return finish(b)
}

// Version returns the value's update version number.
//
//masstree:noalloc
func (v *Value) Version() uint64 {
	if v == nil {
		return 0
	}
	if h := binary.LittleEndian.Uint64(v.hdr[:]); h&flagCompact != 0 {
		return h >> compactVersionShift & compactMaxVersion
	}
	return binary.LittleEndian.Uint64(v.head(hdrSize)[offVersion:])
}

// Worker returns the id of the worker whose clock issued the version (0 for
// values built outside a worker context).
//
//masstree:noalloc
func (v *Value) Worker() uint32 {
	if v == nil {
		return 0
	}
	if h := binary.LittleEndian.Uint64(v.hdr[:]); h&flagCompact != 0 {
		return uint32(h >> 56)
	}
	return uint32(binary.LittleEndian.Uint16(v.head(hdrSize)[offWorker:]))
}

// Size returns the value's packed allocation size in bytes (0 for nil). It
// is the figure cache-mode byte accounting charges per value: header, offset
// table, and column data in one number, computed from the header and the
// last column end.
//
//masstree:noalloc
func (v *Value) Size() int {
	if v == nil {
		return 0
	}
	table, data, shift, ncols := v.layout()
	return data + colEnd(v.head(data), table, shift, ncols-1)
}

// ExpiresAt returns the value's expiry time in unix nanoseconds, or 0 for a
// value that never expires. Expiry rides in the packed allocation so it
// survives the log (wal.OpPutTTL) and checkpoints, and so reads can test it
// without touching any structure beyond the value itself; a value without
// one does not pay its eight bytes.
//
//masstree:noalloc
func (v *Value) ExpiresAt() uint64 {
	if v == nil || v.hdr[offFlags]&flagExpiry == 0 {
		return 0
	}
	table, _, _, _ := v.layout() // the expiry ends either header
	return binary.LittleEndian.Uint64(v.head(table)[table-expirySize:])
}

// Expired reports whether the value carries an expiry at or before now
// (unix nanoseconds). A zero expiry never expires.
//
//masstree:noalloc
func (v *Value) Expired(now int64) bool {
	e := v.ExpiresAt()
	return e != 0 && e <= uint64(now)
}

// NumCols returns the number of columns.
//
//masstree:noalloc
func (v *Value) NumCols() int {
	if v == nil {
		return 0
	}
	_, _, _, ncols := v.layout()
	return ncols
}

// Col returns column i, or nil if the column does not exist or is empty.
// The returned slice aliases the value's packed allocation and must not be
// mutated.
//
//masstree:noalloc
func (v *Value) Col(i int) []byte {
	if v == nil {
		return nil
	}
	table, data, shift, ncols := v.layout()
	if uint(i) >= uint(ncols) {
		return nil
	}
	h := v.head(data)
	start, end := colEnd(h, table, shift, i-1), colEnd(h, table, shift, i)
	if start == end {
		return nil
	}
	return v.head(data + end)[data+start:]
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
//
//masstree:noalloc
func (v *Value) Bytes() []byte { return v.Col(0) }

// putFor returns the data the last put to column i carries, if there is one.
// last, when the caller built it, holds for each column one more than the
// index of that put.
func putFor(puts []ColPut, last []int32, i int) ([]byte, bool) {
	if last != nil {
		if j := last[i]; j != 0 {
			return puts[j-1].Data, true
		}
		return nil, false
	}
	for j := len(puts) - 1; j >= 0; j-- {
		if puts[j].Col == i {
			return puts[j].Data, true
		}
	}
	return nil, false
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
// never) stored after the packed header. With puts == nil it rebuilds old's
// columns unchanged under the new version and expiry — the Touch operation.
func BuildTTLAt(old *Value, puts []ColPut, version uint64, worker uint32, expiry uint64) *Value {
	// old's layout, decoded once: where its column ends are and where its
	// bytes begin. The ends are not read unless a column survives.
	var (
		otable, ocols, odata int
		oshift               uint
		oends                []byte // the allocation up to the data
	)
	if old != nil {
		otable, odata, oshift, ocols = old.layout()
		oends = old.head(odata)
	}

	ncols := ocols
	for _, p := range puts {
		if p.Col < 0 {
			panic(fmt.Sprintf("value: negative column index %d", p.Col))
		}
		if p.Col+1 > ncols {
			ncols = p.Col + 1
		}
	}
	// putFor probes the put list once per column, which beats any scratch
	// for the lists a request carries. A column-complete list — what
	// recovery passes for a checkpoint entry or a whole-value insert, up to
	// 65 535 puts for as many columns — would make that quadratic, seconds
	// per value: index a long list by column first. (Indexes, not the Data
	// slices: storing those would make every caller's put data escape.)
	var last []int32
	if len(puts) > 16 {
		last = make([]int32, ncols)
		for j, p := range puts {
			last[p.Col] = int32(j + 1)
		}
	}
	total, width := 0, -1
	for i := 0; i < ncols; i++ {
		n := 0
		if d, put := putFor(puts, last, i); put {
			n = len(d)
		} else if i < ocols {
			n = colEnd(oends, otable, oshift, i) - colEnd(oends, otable, oshift, i-1)
		}
		total += n
		width = sameWidth(width, i, n)
	}
	b, table, shift, data := alloc(version, worker, expiry, ncols, width, total)
	off := 0
	for i := 0; i < ncols; {
		if d, put := putFor(puts, last, i); put {
			off += copy(b[data+off:], d)
			putColEnd(b, table, shift, i, off)
			i++
			continue
		}
		// A maximal run of columns no put touches: what old holds of them
		// is contiguous there and is copied at once; their ends move by as
		// much as the columns before them grew or shrank.
		run := i + 1
		for ; run < ncols; run++ {
			if _, put := putFor(puts, last, run); put {
				break
			}
		}
		if i < ocols {
			lo, hi := colEnd(oends, otable, oshift, i-1), colEnd(oends, otable, oshift, min(run, ocols)-1)
			shifted := off - lo
			off += copy(b[data+off:], old.head(odata + hi)[odata+lo:])
			for ; i < min(run, ocols); i++ {
				putColEnd(b, table, shift, i, colEnd(oends, otable, oshift, i)+shifted)
			}
		}
		for ; i < run; i++ { // past old's width: empty
			putColEnd(b, table, shift, i, off)
		}
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
