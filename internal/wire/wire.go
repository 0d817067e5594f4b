// Package wire defines the binary client/server protocol. Requests query
// and change the mapping of keys to values; values are divided into columns
// (§3). A single message carries a whole batch of queries — batching is
// vital for throughput (§7: "Batched query support is vital on these
// benchmarks") — and responses come back as a matching batch.
//
// # Framing
//
// A connection opens with a hello from each side; every frame after it, in
// either direction, is tagged:
//
//	hello:  0xFFFFFFFF | "MTKV"       | version(1)
//	frame:  length(4, LE) | 1<<31     | tag(4, LE) | body
//
// The client's hello proposes a version and the server's hello answers with
// the one it accepts. Version2 is the only version there is: ReadHello
// refuses an older one for both ends, and a server closes a connection whose
// first bytes are not a hello without executing anything. The length word
// counts the tag and the body; a body holds a 4-byte request/response count
// followed by that many requests or responses. Tags are opaque sequence
// numbers chosen by the client; the server echoes each request frame's tag
// on its response frame and answers frames in arrival order, so a client
// may keep many tagged batches in flight (pipelining) and match responses
// to requests by tag.
//
// The length word's top bit (v2FrameBit) once told a tagged frame from the
// untagged one an older protocol version sent. It stays because the layout
// stays — clearing it would change the bytes of every frame — and it still
// costs nothing to check: lengths are bounded by MaxMessage, far below
// 1<<31, so ReadTaggedHeader refuses a length word without it as a frame no
// peer of this protocol writes.
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
// # Encoding and decoding
//
// Each direction has one encoder, which appends a whole tagged frame to the
// caller's buffer (AppendTaggedRequests, AppendTaggedResponses), and one
// decoder, which decodes a frame body by aliasing it instead of copying
// (ParseRequests into a DecodeBuf, ParseResponses into a RespDecodeBuf).
// The scratch is reused across frames, so the steady-state hot path
// allocates nothing; decoded results are valid only until the next call
// with the same scratch. ReadTaggedHeader and the ReadTagged*Body helpers
// take a frame off a stream in two steps, so a reader can choose the
// scratch after it has learned the tag. ParseRequestsLenient decodes as
// much of a damaged batch as possible, so a server can answer the
// undecodable suffix with StatusError instead of dropping the connection.
// An encoder refuses a request or response whose counts or key length its
// fields cannot carry (MaxKeyLen, MaxColList, MaxRangeN, value.MaxCol)
// rather than send their low bits.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

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
	// value that never expires, exactly like OpPut.
	OpPutTTL OpCode = 7
	// OpTouch resets a key's TTL without changing its value (TTL 0 removes
	// the expiry). StatusNotFound if the key is absent or already expired.
	OpTouch OpCode = 8
	// OpGetOrLoad is OpGet reading through the server's backend tier on
	// miss: concurrent misses for one key coalesce into a single backend
	// load server-side. Responses may carry StatusStale when the backend is
	// unavailable and an expired resident value is served under the
	// max-stale window. Encodes exactly like OpGet.
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

// What a frame's counts and key lengths can say on the wire, beside
// value.MaxCol for a column's index: an encoder refuses a request or
// response past any of them rather than send its low bits.
const (
	MaxKeyLen  = 1<<16 - 1 // a request's key and a pair's key travel behind a u16 length
	MaxRangeN  = 1<<16 - 1 // OpGetRange's N travels as a u16
	MaxColList = 1<<8 - 1  // a request's column list (Cols or Puts) is counted in one byte
)

var (
	errKeyLen       = errors.New("wire: key longer than MaxKeyLen (65535) bytes")
	errRangeN       = errors.New("wire: getrange N outside 0..MaxRangeN (65535)")
	errColList      = errors.New("wire: request names more than MaxColList (255) columns")
	errTooLarge     = errors.New("wire: message exceeds MaxMessage")
	errShort        = errors.New("wire: short message")
	errTrailingReq  = errors.New("wire: trailing request bytes")
	errTrailingResp = errors.New("wire: trailing response bytes")
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

// DecodeBuf is one connection's reusable request-decode state: the raw frame
// body plus arenas backing the decoded requests' Key, Cols, and Puts fields.
// Requests returned by ParseRequests/ParseRequestsLenient alias these
// buffers and are valid only until the next call with the same DecodeBuf.
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

// ParseRequests decodes a request-batch body (a tagged frame's payload, past
// its length and tag words). Decoded Key and put Data fields alias body; Cols
// and Puts slices live in d's arenas. Results are valid until the next call
// with the same DecodeBuf or until body's buffer is reused. Any malformed
// request fails the whole batch.
//
//masstree:noalloc
func ParseRequests(body []byte, d *DecodeBuf) ([]Request, error) {
	reqs, _, err := parseRequests(body, d)
	if err != nil {
		return nil, err
	}
	return reqs, nil
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
	reqs, claimed, err = parseRequests(body, d)
	if len(reqs) < claimed {
		return reqs, claimed, nil // a request failed: the rest is answered, not the frame dropped
	}
	return reqs, claimed, err
}

// parseRequests is the one decode loop behind both faces. It returns the
// decoded prefix, the claimed count and the first failing request's error;
// a frame that cannot be trusted (no count, a dishonest count, trailing
// bytes) returns no requests, a claimed count of 0 and its error.
//
//masstree:noalloc
func parseRequests(body []byte, d *DecodeBuf) ([]Request, int, error) {
	n, body, err := readU32(body)
	if err != nil {
		return nil, 0, err
	}
	if int(n) > len(body)/minRequestSize {
		// The count cannot be honest: each request encodes to at least
		// minRequestSize bytes. Reject before sizing d.reqs, so a forged
		// count cannot amplify a small frame into a huge allocation.
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
		if body, err = parseRequestAlias(body, &d.reqs[i], d); err != nil {
			return d.reqs[:i:i], int(n), err
		}
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

// appendRequest encodes r behind b, or refuses it part-way (the callers cut
// dst back): a count or key length the format's field cannot hold would
// otherwise go out as its low bits and come back as the answer to a
// different question — or, a key's, as a frame no decoder can parse.
func appendRequest(b []byte, r *Request) ([]byte, error) {
	if len(r.Key) > MaxKeyLen {
		return b, errKeyLen
	}
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

// appendResponse encodes r behind b, or refuses it part-way as appendRequest
// does: a pair's key can be longer than its u16 length field (a library put
// may store one).
func appendResponse(b []byte, r *Response) ([]byte, error) {
	b = append(b, r.Status)
	b = binary.LittleEndian.AppendUint64(b, r.Version)
	b = binary.LittleEndian.AppendUint16(b, value.Count16(len(r.Cols), "wire response"))
	for _, c := range r.Cols {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(c)))
		b = append(b, c...)
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(r.Pairs)))
	for _, p := range r.Pairs {
		if len(p.Key) > MaxKeyLen {
			return b, errKeyLen
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(len(p.Key)))
		b = append(b, p.Key...)
		b = binary.LittleEndian.AppendUint16(b, value.Count16(len(p.Cols), "wire response"))
		for _, c := range p.Cols {
			b = binary.LittleEndian.AppendUint32(b, uint32(len(c)))
			b = append(b, c...)
		}
	}
	return b, nil
}

func readU32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, errShort
	}
	return binary.LittleEndian.Uint32(b), b[4:], nil
}
