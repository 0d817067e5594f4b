// Package wire defines the binary client/server protocol. Requests query
// and change the mapping of keys to values; values are divided into columns
// (§3). A single message carries a whole batch of queries — batching is
// vital for throughput (§7: "Batched query support is vital on these
// benchmarks") — and responses come back as a matching batch.
//
// # Protocol versions and framing
//
// Two frame layouts share one connection-level grammar, distinguished by
// the top bit of the leading length word (lengths are bounded by MaxMessage,
// far below 1<<31, so the bit is never part of an honest v1 length):
//
//	v1 frame:  length(4, LE)            | body
//	v2 frame:  length(4, LE) | 1<<31    | tag(4, LE) | body
//	hello:     0xFFFFFFFF | "MTKV"      | version(1)
//
// A body holds a 4-byte request/response count followed by that many
// requests or responses. A v1 connection allows one frame in flight: the
// client writes a batch and blocks for the matching batch of responses.
//
// Protocol v2 is negotiated by a hello exchange: the client's first bytes
// are a hello frame proposing a version, the server answers with a hello
// carrying the version it accepts (the minimum of both sides'), and every
// subsequent frame in both directions is tagged. Version2 is the oldest
// version a hello can negotiate — v1 clients simply send no hello — so a
// server drops a connection whose hello proposes anything lower rather
// than answering with a version the hello sender could not speak. Tags are opaque sequence
// numbers chosen by the client; the server echoes each request frame's tag
// on its response frame and answers frames in arrival order, so a client
// may keep many tagged batches in flight (pipelining) and match responses
// to requests by tag. A client that sends no hello speaks v1 verbatim —
// the hello magic decodes as an impossible v1 length, so the two first
// bytes streams cannot be confused.
//
// # Order within a frame
//
// The requests of one frame are answered in order, response i for request
// i, and share one invoke-to-return interval: the client learns nothing of
// any of them until the response frame arrives. Within it the server
// promises this much about the order in which they take effect. Requests
// on the same key take effect in frame order — a get behind a put of its
// key reads the value, and reports the version, that put published; a get
// ahead of it reads what was there before; puts of one key draw ascending
// versions. A maximal stretch of OpGet and OpPut requests is executed as
// one batch, and inside such a stretch requests on different keys take
// effect in no particular order (its puts are applied in key order, its
// gets read the store as it stood before any of them). Every other opcode
// is a barrier: it takes effect after everything ahead of it in the frame
// and before everything behind it, so a scan or a remove in the middle of
// a frame sees exactly the puts that precede it.
//
// # Conditional writes
//
// OpCas is a versioned conditional put (Deuteronomy-style latch-free
// read-modify-write): the request carries ExpectVersion, the version the
// client last observed (0 meaning "key absent"), and the put applies only
// if the key's current version still equals it. A mismatch returns
// StatusConflict with the current version in Response.Version so the
// client can re-read, rebase, and retry. Get responses carry the value's
// version for exactly this purpose.
//
// # Decode/encode surfaces
//
// Two decode/encode surfaces exist. The legacy functions (ReadRequests,
// WriteRequests, ...) return self-contained values and are safe to retain;
// they draw their frame buffers from an internal pool. The scratch-based
// variants (ReadRequestsInto, WriteResponsesInto, the tagged v2 helpers,
// ...) reuse per-connection buffers across messages and decode by aliasing
// the frame body instead of copying, making the steady-state hot path
// allocation-free; their results are only valid until the next call with
// the same scratch. ParseRequestsLenient additionally decodes as much of a
// damaged batch as possible so a server can answer the undecodable suffix
// with StatusError instead of dropping the connection.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/value"
)

// OpCode identifies a request type.
type OpCode uint8

const (
	// OpGet retrieves (a subset of columns of) one key.
	OpGet OpCode = 1
	// OpPut modifies a subset of columns of one key.
	OpPut OpCode = 2
	// OpRemove deletes one key.
	OpRemove OpCode = 3
	// OpGetRange is the paper's getrange/scan: up to N pairs from a start key.
	OpGetRange OpCode = 4
	// OpStats requests server statistics; the response carries metric
	// name/value pairs in Pairs.
	OpStats OpCode = 5
	// OpCas is a versioned conditional put: the column writes in Puts apply
	// only if the key's current version equals ExpectVersion (0 = absent).
	// On success the response is an ordinary put response; on mismatch it is
	// StatusConflict with the current version.
	OpCas OpCode = 6
	// OpPutTTL is OpPut with a time-to-live: the request carries TTL
	// seconds (relative — the server computes the absolute deadline), after
	// which the key reads as absent and is eventually swept. TTL 0 stores a
	// value that never expires, exactly like OpPut. Cache-mode operations
	// are protocol v2 surface: a v1 connection answering them gets
	// StatusError (v1 semantics stay untouched).
	OpPutTTL OpCode = 7
	// OpTouch resets a key's TTL without changing its value (TTL 0 removes
	// the expiry). StatusNotFound if the key is absent or already expired.
	OpTouch OpCode = 8
	// OpGetOrLoad is OpGet reading through the server's backend tier on
	// miss: concurrent misses for one key coalesce into a single backend
	// load server-side. Responses may carry StatusStale when the backend is
	// unavailable and an expired resident value is served under the
	// max-stale window. Like the other cache-mode ops it is protocol v2
	// surface; v1 connections get StatusError. Encodes exactly like OpGet.
	OpGetOrLoad OpCode = 9
)

// Status codes.
const (
	StatusOK       uint8 = 0
	StatusNotFound uint8 = 1
	StatusError    uint8 = 2
	// StatusConflict answers an OpCas whose ExpectVersion no longer matches;
	// Response.Version carries the key's current version (0 if absent).
	StatusConflict uint8 = 3
	// StatusStale answers an OpGetOrLoad whose backend could not be reached
	// and whose value is a resident expired one served under the server's
	// max-stale degradation window; Cols/Version are otherwise as StatusOK.
	StatusStale uint8 = 4
)

// ColData is a column index with data (for puts): the store's own put
// element, so a decoded request's Puts go to the store as they are.
type ColData = value.ColPut

// Request is one operation within a batch.
type Request struct {
	Op            OpCode
	Key           []byte
	Cols          []int     // columns to read (OpGet/OpGetRange); nil = all
	Puts          []ColData // column writes (OpPut/OpCas/OpPutTTL)
	N             int       // max pairs (OpGetRange)
	ExpectVersion uint64    // required current version (OpCas); 0 = absent
	TTL           uint32    // time-to-live seconds (OpPutTTL/OpTouch); 0 = never
}

// Pair is one key-value result of a range query.
type Pair struct {
	Key  []byte
	Cols [][]byte
}

// Response is one operation's result.
type Response struct {
	Status  uint8
	Version uint64   // OpPut
	Cols    [][]byte // OpGet
	Pairs   []Pair   // OpGetRange
}

// MaxMessage bounds a message body; larger frames are rejected as corrupt.
const MaxMessage = 64 << 20

// What a request's counts can say on the wire, beside value.MaxCol for a
// column's index: an encoder refuses a request past either rather than send
// its low bits.
const (
	MaxRangeN  = 1<<16 - 1 // OpGetRange's N travels as a u16
	MaxColList = 1<<8 - 1  // a request's column list (Cols or Puts) is counted in one byte
)

var (
	errRangeN       = errors.New("wire: getrange N outside 0..MaxRangeN (65535)")
	errColList      = errors.New("wire: request names more than MaxColList (255) columns")
	errTooLarge     = errors.New("wire: message exceeds MaxMessage")
	errShort        = errors.New("wire: short message")
	errTrailingReq  = errors.New("wire: trailing request bytes")
	errTrailingResp = errors.New("wire: trailing response bytes")
	errFrameLen     = errors.New("wire: frame length mismatch")
	errColumn       = errors.New("wire: put column beyond value.MaxCol")
)

// Minimum encoded sizes, used to sanity-bound batch counts before sizing
// decode buffers: a request is at least op + keylen (3 bytes), a response at
// least status + version + ncols + npairs (13 bytes).
const (
	minRequestSize  = 3
	minResponseSize = 13
)

// Approximate in-memory struct sizes, used by Shrink to bound *retained*
// scratch: a tiny wire request still occupies a full Request struct, so the
// cap math must use the struct size, not the wire size.
const (
	requestStructBytes  = 96 // Op + Key/Cols/Puts headers + N + ExpectVersion
	responseStructBytes = 64 // Status + Version + Cols/Pairs headers
)

// framePool recycles frame buffers for the legacy read/write entry points,
// so even callers without per-connection scratch avoid steady-state frame
// allocations. Oversized buffers are dropped rather than pinned in the pool.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledFrame = 1 << 20

func putFrameBuf(b *[]byte) {
	if cap(*b) <= maxPooledFrame {
		framePool.Put(b)
	}
}

// DecodeBuf is one connection's reusable request-decode state: the raw frame
// body plus arenas backing the decoded requests' Key, Cols, and Puts fields.
// Requests returned by ReadRequestsInto/ParseRequests alias these buffers
// and are valid only until the next call with the same DecodeBuf.
//
//masstree:scratch
type DecodeBuf struct {
	frame []byte
	reqs  []Request
	cols  []int
	puts  []ColData
}

// Shrink releases any of d's buffers grown past roughly max bytes, so one
// oversized message does not pin its peak footprint for the connection's
// lifetime. Call between messages (never while decoded requests are live).
func (d *DecodeBuf) Shrink(max int) {
	if cap(d.frame) > max {
		d.frame = nil
	}
	if cap(d.reqs)*requestStructBytes > max {
		d.reqs = nil
	}
	if cap(d.cols)*8 > max {
		d.cols = nil
	}
	if cap(d.puts)*32 > max {
		d.puts = nil
	}
}

// ReadRequestsInto reads one framed request batch into d's reusable buffers.
// The returned requests alias d and remain valid until the next call.
func ReadRequestsInto(r *bufio.Reader, d *DecodeBuf) ([]Request, error) {
	body, err := readFrameInto(r, &d.frame)
	if err != nil {
		return nil, err
	}
	return ParseRequests(body, d)
}

// ParseRequests decodes a request-batch body (the frame payload, without the
// 4-byte length header). Decoded Key and put Data fields alias body; Cols
// and Puts slices live in d's arenas. Results are valid until the next call
// with the same DecodeBuf or until body's buffer is reused.
//
//masstree:noalloc
func ParseRequests(body []byte, d *DecodeBuf) ([]Request, error) {
	n, body, err := readU32(body)
	if err != nil {
		return nil, err
	}
	if int(n) > len(body)/minRequestSize {
		// The count cannot be honest: each request encodes to at least
		// minRequestSize bytes. Reject before sizing d.reqs, so a forged
		// count cannot amplify a small frame into a huge allocation.
		return nil, errShort
	}
	if cap(d.reqs) < int(n) {
		d.reqs = make([]Request, n) //lint:allow noalloc scratch warm-up: amortized, sized by a count the frame length vouches for
	} else {
		d.reqs = d.reqs[:n]
	}
	d.cols = d.cols[:0]
	d.puts = d.puts[:0]
	for i := range d.reqs {
		body, err = parseRequestAlias(body, &d.reqs[i], d)
		if err != nil {
			return nil, err
		}
	}
	if len(body) != 0 {
		return nil, errTrailingReq
	}
	return d.reqs, nil
}

// ParseRequestsLenient decodes as much of a request-batch body as possible.
// It returns the decodable prefix of the batch plus the batch's claimed
// request count; a malformed request (unknown opcode, truncated payload)
// ends the prefix instead of failing the whole frame, so a server can
// answer the remaining claimed-len(reqs) requests with StatusError and keep
// the connection alive. The error is non-nil only when the frame itself
// cannot be trusted: a missing or dishonest count (each request encodes to
// at least minRequestSize bytes, so a count a small frame cannot hold is a
// forgery, not damage), or trailing bytes after a fully decoded batch.
// Aliasing and scratch lifetime match ParseRequests.
//
//masstree:noalloc
func ParseRequestsLenient(body []byte, d *DecodeBuf) (reqs []Request, claimed int, err error) {
	n, body, err := readU32(body)
	if err != nil {
		return nil, 0, err
	}
	if int(n) > len(body)/minRequestSize {
		return nil, 0, errShort
	}
	if cap(d.reqs) < int(n) {
		d.reqs = make([]Request, n) //lint:allow noalloc scratch warm-up: amortized, sized by a count the frame length vouches for
	} else {
		d.reqs = d.reqs[:n]
	}
	d.cols = d.cols[:0]
	d.puts = d.puts[:0]
	for i := range d.reqs {
		rest, err := parseRequestAlias(body, &d.reqs[i], d)
		if err != nil {
			return d.reqs[:i:i], int(n), nil
		}
		body = rest
	}
	if len(body) != 0 {
		return nil, 0, errTrailingReq
	}
	return d.reqs, int(n), nil
}

// parseRequestAlias decodes one request without copying: Key and put Data
// alias b, Cols/Puts slice into d's arenas. All fields of r are overwritten.
//
//masstree:noalloc
func parseRequestAlias(b []byte, r *Request, d *DecodeBuf) ([]byte, error) {
	*r = Request{}
	if len(b) < 3 {
		return nil, errShort
	}
	r.Op = OpCode(b[0])
	klen := int(binary.LittleEndian.Uint16(b[1:]))
	b = b[3:]
	if len(b) < klen {
		return nil, errShort
	}
	r.Key = b[:klen:klen]
	b = b[klen:]
	switch r.Op {
	case OpGet, OpGetRange, OpGetOrLoad:
		if len(b) < 1 {
			return nil, errShort
		}
		ncols := int(b[0])
		b = b[1:]
		if len(b) < 2*ncols {
			return nil, errShort
		}
		if ncols > 0 {
			start := len(d.cols)
			for i := 0; i < ncols; i++ {
				d.cols = append(d.cols, int(binary.LittleEndian.Uint16(b)))
				b = b[2:]
			}
			r.Cols = d.cols[start:len(d.cols):len(d.cols)]
		}
		if r.Op == OpGetRange {
			if len(b) < 2 {
				return nil, errShort
			}
			r.N = int(binary.LittleEndian.Uint16(b))
			b = b[2:]
		}
	case OpPut, OpCas, OpPutTTL:
		if r.Op == OpCas {
			if len(b) < 8 {
				return nil, errShort
			}
			r.ExpectVersion = binary.LittleEndian.Uint64(b)
			b = b[8:]
		}
		if r.Op == OpPutTTL {
			if len(b) < 4 {
				return nil, errShort
			}
			r.TTL = binary.LittleEndian.Uint32(b)
			b = b[4:]
		}
		if len(b) < 1 {
			return nil, errShort
		}
		nputs := int(b[0])
		b = b[1:]
		start := len(d.puts)
		for i := 0; i < nputs; i++ {
			if len(b) < 6 {
				return nil, errShort
			}
			col := int(binary.LittleEndian.Uint16(b))
			dlen := int(binary.LittleEndian.Uint32(b[2:]))
			b = b[6:]
			if len(b) < dlen {
				return nil, errShort
			}
			if col > value.MaxCol {
				return nil, errColumn
			}
			d.puts = append(d.puts, ColData{Col: col, Data: b[:dlen:dlen]})
			b = b[dlen:]
		}
		r.Puts = d.puts[start:len(d.puts):len(d.puts)]
	case OpTouch:
		if len(b) < 4 {
			return nil, errShort
		}
		r.TTL = binary.LittleEndian.Uint32(b)
		b = b[4:]
	case OpRemove, OpStats:
	default:
		return nil, fmt.Errorf("wire: unknown opcode %d", r.Op) //lint:allow noalloc malformed-input error path; a well-formed batch never reaches it
	}
	return b, nil
}

// RespDecodeBuf is the response-side analogue of DecodeBuf, used by clients
// that read many response batches on one connection.
//
//masstree:scratch
type RespDecodeBuf struct {
	frame []byte
	resps []Response
	cols  [][]byte
	pairs []Pair
}

// Shrink is DecodeBuf.Shrink for the response side.
func (d *RespDecodeBuf) Shrink(max int) {
	if cap(d.frame) > max {
		d.frame = nil
	}
	if cap(d.resps)*responseStructBytes > max {
		d.resps = nil
	}
	if cap(d.cols)*24 > max {
		d.cols = nil
	}
	if cap(d.pairs)*48 > max {
		d.pairs = nil
	}
}

// ReadResponsesInto reads one framed response batch into d's reusable
// buffers. The returned responses alias d and are valid until the next call.
func ReadResponsesInto(r *bufio.Reader, d *RespDecodeBuf) ([]Response, error) {
	body, err := readFrameInto(r, &d.frame)
	if err != nil {
		return nil, err
	}
	return ParseResponses(body, d)
}

// ParseResponses decodes a response-batch body; column data and pair keys
// alias body, slice headers live in d's arenas. Results are valid until the
// next call with the same RespDecodeBuf or until body's buffer is reused.
//
//masstree:noalloc
func ParseResponses(body []byte, d *RespDecodeBuf) ([]Response, error) {
	n, body, err := readU32(body)
	if err != nil {
		return nil, err
	}
	if int(n) > len(body)/minResponseSize {
		return nil, errShort
	}
	if cap(d.resps) < int(n) {
		d.resps = make([]Response, n) //lint:allow noalloc scratch warm-up: amortized, sized by a count the frame length vouches for
	} else {
		d.resps = d.resps[:n]
	}
	d.cols = d.cols[:0]
	d.pairs = d.pairs[:0]
	for i := range d.resps {
		body, err = parseResponseAlias(body, &d.resps[i], d)
		if err != nil {
			return nil, err
		}
	}
	if len(body) != 0 {
		return nil, errTrailingResp
	}
	return d.resps, nil
}

//masstree:noalloc
func parseResponseAlias(b []byte, r *Response, d *RespDecodeBuf) ([]byte, error) {
	*r = Response{}
	if len(b) < 13 {
		return nil, errShort
	}
	r.Status = b[0]
	r.Version = binary.LittleEndian.Uint64(b[1:])
	ncols := int(binary.LittleEndian.Uint16(b[9:]))
	b = b[11:]
	var err error
	if ncols > 0 {
		r.Cols, b, err = parseColsAlias(b, ncols, d)
		if err != nil {
			return nil, err
		}
	}
	if len(b) < 2 {
		return nil, errShort
	}
	npairs := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if npairs > 0 {
		start := len(d.pairs)
		for i := 0; i < npairs; i++ {
			var p Pair
			if len(b) < 2 {
				return nil, errShort
			}
			klen := int(binary.LittleEndian.Uint16(b))
			b = b[2:]
			if len(b) < klen+2 {
				return nil, errShort
			}
			p.Key = b[:klen:klen]
			b = b[klen:]
			nc := int(binary.LittleEndian.Uint16(b))
			b = b[2:]
			p.Cols, b, err = parseColsAlias(b, nc, d)
			if err != nil {
				return nil, err
			}
			d.pairs = append(d.pairs, p)
		}
		r.Pairs = d.pairs[start:len(d.pairs):len(d.pairs)]
	}
	return b, nil
}

// parseColsAlias reads n length-prefixed byte strings, aliasing b, with the
// [][]byte headers appended to d's cols arena.
//
//masstree:noalloc
func parseColsAlias(b []byte, n int, d *RespDecodeBuf) ([][]byte, []byte, error) {
	start := len(d.cols)
	for i := 0; i < n; i++ {
		if len(b) < 4 {
			return nil, nil, errShort
		}
		dlen := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if len(b) < dlen {
			return nil, nil, errShort
		}
		d.cols = append(d.cols, b[:dlen:dlen])
		b = b[dlen:]
	}
	return d.cols[start:len(d.cols):len(d.cols)], b, nil
}

// AppendRequests appends a complete framed request batch (length header plus
// body) to dst, returning the extended slice.
func AppendRequests(dst []byte, reqs []Request) ([]byte, error) {
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(reqs)))
	for i := range reqs {
		var err error
		if dst, err = appendRequest(dst, &reqs[i]); err != nil {
			return dst[:base], err
		}
	}
	return finishFrame(dst, base)
}

// AppendResponses appends a complete framed response batch to dst.
func AppendResponses(dst []byte, resps []Response) ([]byte, error) {
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(resps)))
	for i := range resps {
		dst = appendResponse(dst, &resps[i])
	}
	return finishFrame(dst, base)
}

// finishFrame patches the 4-byte length header reserved at base.
func finishFrame(dst []byte, base int) ([]byte, error) {
	n := len(dst) - base - 4
	if n > MaxMessage {
		return dst[:base], errTooLarge
	}
	binary.LittleEndian.PutUint32(dst[base:], uint32(n))
	return dst, nil
}

// WriteRequestsInto frames and writes a request batch, building the frame in
// *buf (grown as needed and retained for reuse across calls).
func WriteRequestsInto(w *bufio.Writer, reqs []Request, buf *[]byte) error {
	b, err := AppendRequests((*buf)[:0], reqs)
	if err != nil {
		return err
	}
	*buf = b
	if _, err := w.Write(b); err != nil {
		return err
	}
	return w.Flush()
}

// WriteResponsesInto frames and writes a response batch, building the frame
// in *buf (grown as needed and retained for reuse across calls).
func WriteResponsesInto(w *bufio.Writer, resps []Response, buf *[]byte) error {
	b, err := AppendResponses((*buf)[:0], resps)
	if err != nil {
		return err
	}
	*buf = b
	if _, err := w.Write(b); err != nil {
		return err
	}
	return w.Flush()
}

// WriteRequests frames and writes a request batch using a pooled buffer.
func WriteRequests(w *bufio.Writer, reqs []Request) error {
	bp := framePool.Get().(*[]byte)
	err := WriteRequestsInto(w, reqs, bp)
	putFrameBuf(bp)
	return err
}

// WriteResponses frames and writes a response batch using a pooled buffer.
func WriteResponses(w *bufio.Writer, resps []Response) error {
	bp := framePool.Get().(*[]byte)
	err := WriteResponsesInto(w, resps, bp)
	putFrameBuf(bp)
	return err
}

// ReadRequests reads one framed request batch. The returned requests own
// their memory (nothing aliases internal buffers); the frame is pooled.
func ReadRequests(r *bufio.Reader) ([]Request, error) {
	bp := framePool.Get().(*[]byte)
	defer putFrameBuf(bp)
	body, err := readFrameInto(r, bp)
	if err != nil {
		return nil, err
	}
	n, body, err := readU32(body)
	if err != nil {
		return nil, err
	}
	if int(n) > len(body)/minRequestSize {
		return nil, errShort
	}
	reqs := make([]Request, n)
	for i := range reqs {
		body, err = parseRequest(body, &reqs[i])
		if err != nil {
			return nil, err
		}
	}
	if len(body) != 0 {
		return nil, errTrailingReq
	}
	return reqs, nil
}

// ReadResponses reads one framed response batch. The returned responses own
// their memory; the frame is pooled.
func ReadResponses(r *bufio.Reader) ([]Response, error) {
	bp := framePool.Get().(*[]byte)
	defer putFrameBuf(bp)
	body, err := readFrameInto(r, bp)
	if err != nil {
		return nil, err
	}
	n, body, err := readU32(body)
	if err != nil {
		return nil, err
	}
	if int(n) > len(body)/minResponseSize {
		return nil, errShort
	}
	resps := make([]Response, n)
	for i := range resps {
		body, err = parseResponse(body, &resps[i])
		if err != nil {
			return nil, err
		}
	}
	if len(body) != 0 {
		return nil, errTrailingResp
	}
	return resps, nil
}

// ParseFrame validates a self-contained frame (one UDP datagram: 4-byte
// length header plus body filling the rest of the buffer) and returns the
// body, aliasing b.
//
//masstree:noalloc
func ParseFrame(b []byte) ([]byte, error) {
	if len(b) < 4 {
		return nil, errShort
	}
	n := binary.LittleEndian.Uint32(b)
	if n > MaxMessage {
		return nil, errTooLarge
	}
	if int(n) != len(b)-4 {
		return nil, errFrameLen
	}
	return b[4:], nil
}

// readFrameInto reads one length-prefixed frame body into *buf, growing it
// as needed; the buffer is retained across calls for reuse.
func readFrameInto(r *bufio.Reader, buf *[]byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxMessage {
		return nil, errTooLarge
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	} else {
		*buf = (*buf)[:n]
	}
	if _, err := io.ReadFull(r, *buf); err != nil {
		return nil, err
	}
	return *buf, nil
}

// appendRequest encodes r behind b, or refuses it part-way (the callers cut
// dst back): a count the format's field cannot hold would otherwise go out
// as its low bits and come back as the answer to a different question.
func appendRequest(b []byte, r *Request) ([]byte, error) {
	b = append(b, byte(r.Op))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(r.Key)))
	b = append(b, r.Key...)
	switch r.Op {
	case OpGet, OpGetRange, OpGetOrLoad:
		if len(r.Cols) > MaxColList {
			return b, errColList
		}
		b = append(b, byte(len(r.Cols)))
		for _, c := range r.Cols {
			b = binary.LittleEndian.AppendUint16(b, uint16(c))
		}
		if r.Op == OpGetRange {
			if uint(r.N) > MaxRangeN { // negative included
				return b, errRangeN
			}
			b = binary.LittleEndian.AppendUint16(b, uint16(r.N))
		}
	case OpPut, OpCas, OpPutTTL:
		if len(r.Puts) > MaxColList {
			return b, errColList
		}
		if r.Op == OpCas {
			b = binary.LittleEndian.AppendUint64(b, r.ExpectVersion)
		}
		if r.Op == OpPutTTL {
			b = binary.LittleEndian.AppendUint32(b, r.TTL)
		}
		b = append(b, byte(len(r.Puts)))
		for _, p := range r.Puts {
			b = binary.LittleEndian.AppendUint16(b, uint16(p.Col))
			b = binary.LittleEndian.AppendUint32(b, uint32(len(p.Data)))
			b = append(b, p.Data...)
		}
	case OpTouch:
		b = binary.LittleEndian.AppendUint32(b, r.TTL)
	case OpRemove, OpStats:
	}
	return b, nil
}

func parseRequest(b []byte, r *Request) ([]byte, error) {
	if len(b) < 3 {
		return nil, errShort
	}
	r.Op = OpCode(b[0])
	klen := int(binary.LittleEndian.Uint16(b[1:]))
	b = b[3:]
	if len(b) < klen {
		return nil, errShort
	}
	r.Key = append([]byte(nil), b[:klen]...)
	b = b[klen:]
	switch r.Op {
	case OpGet, OpGetRange, OpGetOrLoad:
		if len(b) < 1 {
			return nil, errShort
		}
		ncols := int(b[0])
		b = b[1:]
		if len(b) < 2*ncols {
			return nil, errShort
		}
		if ncols > 0 {
			r.Cols = make([]int, ncols)
			for i := range r.Cols {
				r.Cols[i] = int(binary.LittleEndian.Uint16(b))
				b = b[2:]
			}
		}
		if r.Op == OpGetRange {
			if len(b) < 2 {
				return nil, errShort
			}
			r.N = int(binary.LittleEndian.Uint16(b))
			b = b[2:]
		}
	case OpPut, OpCas, OpPutTTL:
		if r.Op == OpCas {
			if len(b) < 8 {
				return nil, errShort
			}
			r.ExpectVersion = binary.LittleEndian.Uint64(b)
			b = b[8:]
		}
		if r.Op == OpPutTTL {
			if len(b) < 4 {
				return nil, errShort
			}
			r.TTL = binary.LittleEndian.Uint32(b)
			b = b[4:]
		}
		if len(b) < 1 {
			return nil, errShort
		}
		nputs := int(b[0])
		b = b[1:]
		r.Puts = make([]ColData, nputs)
		for i := range r.Puts {
			if len(b) < 6 {
				return nil, errShort
			}
			r.Puts[i].Col = int(binary.LittleEndian.Uint16(b))
			dlen := int(binary.LittleEndian.Uint32(b[2:]))
			b = b[6:]
			if len(b) < dlen {
				return nil, errShort
			}
			if r.Puts[i].Col > value.MaxCol {
				return nil, errColumn
			}
			r.Puts[i].Data = append([]byte(nil), b[:dlen]...)
			b = b[dlen:]
		}
	case OpTouch:
		if len(b) < 4 {
			return nil, errShort
		}
		r.TTL = binary.LittleEndian.Uint32(b)
		b = b[4:]
	case OpRemove, OpStats:
	default:
		return nil, fmt.Errorf("wire: unknown opcode %d", r.Op)
	}
	return b, nil
}

func appendResponse(b []byte, r *Response) []byte {
	b = append(b, r.Status)
	b = binary.LittleEndian.AppendUint64(b, r.Version)
	b = binary.LittleEndian.AppendUint16(b, value.Count16(len(r.Cols), "wire response"))
	for _, c := range r.Cols {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(c)))
		b = append(b, c...)
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(r.Pairs)))
	for _, p := range r.Pairs {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(p.Key)))
		b = append(b, p.Key...)
		b = binary.LittleEndian.AppendUint16(b, value.Count16(len(p.Cols), "wire response"))
		for _, c := range p.Cols {
			b = binary.LittleEndian.AppendUint32(b, uint32(len(c)))
			b = append(b, c...)
		}
	}
	return b
}

func parseResponse(b []byte, r *Response) ([]byte, error) {
	if len(b) < 13 {
		return nil, errShort
	}
	r.Status = b[0]
	r.Version = binary.LittleEndian.Uint64(b[1:])
	ncols := int(binary.LittleEndian.Uint16(b[9:]))
	b = b[11:]
	if ncols > 0 {
		r.Cols = make([][]byte, ncols)
		for i := range r.Cols {
			var err error
			r.Cols[i], b, err = readBytes32(b)
			if err != nil {
				return nil, err
			}
		}
	}
	if len(b) < 2 {
		return nil, errShort
	}
	npairs := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if npairs > 0 {
		r.Pairs = make([]Pair, npairs)
		for i := range r.Pairs {
			if len(b) < 2 {
				return nil, errShort
			}
			klen := int(binary.LittleEndian.Uint16(b))
			b = b[2:]
			if len(b) < klen+2 {
				return nil, errShort
			}
			r.Pairs[i].Key = append([]byte(nil), b[:klen]...)
			b = b[klen:]
			nc := int(binary.LittleEndian.Uint16(b))
			b = b[2:]
			r.Pairs[i].Cols = make([][]byte, nc)
			for j := 0; j < nc; j++ {
				var err error
				r.Pairs[i].Cols[j], b, err = readBytes32(b)
				if err != nil {
					return nil, err
				}
			}
		}
	}
	return b, nil
}

func readBytes32(b []byte) ([]byte, []byte, error) {
	if len(b) < 4 {
		return nil, nil, errShort
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if len(b) < n {
		return nil, nil, errShort
	}
	return append([]byte(nil), b[:n]...), b[n:], nil
}

func readU32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, errShort
	}
	return binary.LittleEndian.Uint32(b), b[4:], nil
}
