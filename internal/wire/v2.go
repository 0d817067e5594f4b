package wire

// The hello exchange and tagged frames. See the package comment for the
// layouts. The helpers here are split so each side of a connection
// can choose the scratch a frame decodes into *after* learning its tag —
// the async client reads a header, looks up the in-flight request with that
// tag, and reads the body straight into that request's reusable buffers.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
)

// Version2 is the protocol version: hello negotiation and tagged frames. It
// is the only version a hello can carry; ReadHello refuses anything older.
const Version2 uint8 = 2

// helloMagic precedes the version byte in a hello frame. Its first four
// bytes, read as a frame header, are a length word with v2FrameBit set and a
// masked length far above MaxMessage, so ReadTaggedHeader refuses a hello
// where a frame is due instead of misreading it.
var helloMagic = [8]byte{0xff, 0xff, 0xff, 0xff, 'M', 'T', 'K', 'V'}

// HelloSize is the encoded size of a hello frame.
const HelloSize = 9

// v2FrameBit marks a length word as a tagged-frame header. MaxMessage is far
// below 1<<31, so the bit is never part of an honest length; the package
// comment says why the layout keeps it.
const v2FrameBit = uint32(1) << 31

// taggedHeaderSize is the frame header: marked length plus tag.
const taggedHeaderSize = 8

var (
	errNotV2      = errors.New("wire: length word without the tagged-frame bit")
	errBadHello   = errors.New("wire: bad hello magic")
	errBadVersion = errors.New("wire: bad hello version")
)

// AppendHello appends a hello frame proposing (or, server-side, accepting)
// the given protocol version.
func AppendHello(dst []byte, version uint8) []byte {
	dst = append(dst, helloMagic[:]...)
	return append(dst, version)
}

// WriteHello writes one hello frame. Callers flush their own writers.
func WriteHello(w io.Writer, version uint8) error {
	var buf [HelloSize]byte
	b := AppendHello(buf[:0], version)
	_, err := w.Write(b)
	return err
}

// IsHelloPrefix reports whether the first four bytes read from a connection
// begin a hello frame rather than a frame header.
func IsHelloPrefix(b []byte) bool {
	return len(b) >= 4 && b[0] == 0xff && b[1] == 0xff && b[2] == 0xff && b[3] == 0xff
}

// ReadHello consumes one hello frame and returns the version it carries,
// refusing one older than Version2: a peer proposing it speaks a protocol
// this package does not, and answering it would only hand it a version it
// cannot read.
func ReadHello(r io.Reader) (uint8, error) {
	var buf [HelloSize]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	if !bytes.Equal(buf[:8], helloMagic[:]) {
		return 0, errBadHello
	}
	if buf[8] < Version2 {
		return 0, errBadVersion
	}
	return buf[8], nil
}

// AppendTaggedRequests appends a complete tagged request frame to dst. A
// request it cannot encode fails the whole frame and leaves dst as it was.
func AppendTaggedRequests(dst []byte, tag uint32, reqs []Request) ([]byte, error) {
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = binary.LittleEndian.AppendUint32(dst, tag)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(reqs)))
	for i := range reqs {
		var err error
		if dst, err = appendRequest(dst, &reqs[i]); err != nil {
			return dst[:base], err
		}
	}
	return finishTaggedFrame(dst, base)
}

// AppendTaggedResponses appends a complete tagged response frame to dst, or
// leaves dst as it was and fails as AppendTaggedRequests does.
func AppendTaggedResponses(dst []byte, tag uint32, resps []Response) ([]byte, error) {
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = binary.LittleEndian.AppendUint32(dst, tag)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(resps)))
	for i := range resps {
		var err error
		if dst, err = appendResponse(dst, &resps[i]); err != nil {
			return dst[:base], err
		}
	}
	return finishTaggedFrame(dst, base)
}

// finishTaggedFrame patches the marked length header reserved at base; the
// length covers the tag plus the body.
func finishTaggedFrame(dst []byte, base int) ([]byte, error) {
	n := len(dst) - base - 4
	if n > MaxMessage {
		return dst[:base], errTooLarge
	}
	binary.LittleEndian.PutUint32(dst[base:], uint32(n)|v2FrameBit)
	return dst, nil
}

// ReadTaggedHeader reads one frame header and returns the frame's tag and
// remaining body length. A length word without v2FrameBit is a protocol
// violation and returns an error.
// The header is decoded in r's own buffer: a local array handed to an
// io.Reader would escape, one heap object per frame.
//
//masstree:noalloc
func ReadTaggedHeader(r *bufio.Reader) (tag uint32, bodyLen int, err error) {
	hdr, err := r.Peek(taggedHeaderSize)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	tag = binary.LittleEndian.Uint32(hdr[4:])
	r.Discard(taggedHeaderSize) // cannot fail: Peek buffered these bytes
	if n&v2FrameBit == 0 {
		return 0, 0, errNotV2
	}
	n &^= v2FrameBit
	if n > MaxMessage {
		return 0, 0, errTooLarge
	}
	if n < 4 {
		return 0, 0, errShort
	}
	return tag, int(n) - 4, nil
}

// NextFrameBuffered reports whether r already holds the whole next frame,
// header and body, so reading it cannot block. A server that answers into a
// buffered writer flushes whenever this is false: a reader holding only part
// of the next frame may block on the rest, and the peer may be waiting for
// the answers already written before it sends it.
func NextFrameBuffered(r *bufio.Reader) bool {
	n := r.Buffered()
	if n < 4 {
		return false
	}
	word, _ := r.Peek(4) // cannot block or fail: these bytes are buffered
	return 4+uint64(binary.LittleEndian.Uint32(word)&^v2FrameBit) <= uint64(n)
}

// ReadTaggedRequestBody reads a request frame's body (after its header was
// consumed by ReadTaggedHeader) into d's reusable frame buffer and returns
// it for ParseRequests or ParseRequestsLenient.
func ReadTaggedRequestBody(r io.Reader, bodyLen int, d *DecodeBuf) ([]byte, error) {
	return readBodyInto(r, bodyLen, &d.frame)
}

// ReadTaggedResponseBody reads and parses a response frame's body into d.
// The responses alias d and are valid until the next call with the same
// scratch.
func ReadTaggedResponseBody(r io.Reader, bodyLen int, d *RespDecodeBuf) ([]Response, error) {
	body, err := readBodyInto(r, bodyLen, &d.frame)
	if err != nil {
		return nil, err
	}
	return ParseResponses(body, d)
}

// readBodyInto reads n bytes into *buf, growing it as needed; the buffer is
// retained across calls for reuse.
func readBodyInto(r io.Reader, n int, buf *[]byte) ([]byte, error) {
	if n < 0 || n > MaxMessage {
		return nil, errTooLarge
	}
	if cap(*buf) < n {
		*buf = make([]byte, n)
	} else {
		*buf = (*buf)[:n]
	}
	if _, err := io.ReadFull(r, *buf); err != nil {
		return nil, err
	}
	return *buf, nil
}
