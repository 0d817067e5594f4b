package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"testing"
)

func TestHelloRoundTrip(t *testing.T) {
	b := AppendHello(nil, Version2)
	if len(b) != HelloSize {
		t.Fatalf("hello size %d want %d", len(b), HelloSize)
	}
	if !IsHelloPrefix(b) {
		t.Fatal("hello not recognized by IsHelloPrefix")
	}
	ver, err := ReadHello(bytes.NewReader(b))
	if err != nil || ver != Version2 {
		t.Fatalf("ReadHello: %d %v", ver, err)
	}

	// A tagged frame must not look like a hello, nor a hello like a frame.
	frame, err := AppendTaggedRequests(nil, 0, []Request{{Op: OpGet, Key: []byte("k")}})
	if err != nil {
		t.Fatal(err)
	}
	if IsHelloPrefix(frame) {
		t.Fatal("tagged frame mistaken for hello")
	}
	if _, _, err := ReadTaggedHeader(bufio.NewReader(bytes.NewReader(b))); err == nil {
		t.Fatal("hello accepted as a frame header")
	}

	// Corrupt magic and every version below Version2 are rejected.
	bad := AppendHello(nil, Version2)
	bad[5] ^= 0xff
	if _, err := ReadHello(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	for v := uint8(0); v < Version2; v++ {
		if _, err := ReadHello(bytes.NewReader(AppendHello(nil, v))); err == nil {
			t.Fatalf("version %d accepted", v)
		}
	}
}

// TestFrameBytesGolden pins the bytes of a hello and of one tagged request
// and response frame, so a peer built before any change to this package
// still reads what it writes.
func TestFrameBytesGolden(t *testing.T) {
	req, err := AppendTaggedRequests(nil, 0x01020304, []Request{
		{Op: OpGet, Key: []byte("k"), Cols: []int{1}},
		{Op: OpPut, Key: []byte("key"), Puts: []ColData{{Col: 2, Data: []byte("val")}}},
		{Op: OpCas, Key: []byte("c"), ExpectVersion: 5, Puts: []ColData{{Col: 0, Data: []byte("x")}}},
		{Op: OpPutTTL, Key: []byte("t"), TTL: 60, Puts: []ColData{{Col: 0, Data: []byte("y")}}},
		{Op: OpTouch, Key: []byte("t"), TTL: 9},
		{Op: OpGetRange, Key: []byte("s"), N: 10},
		{Op: OpRemove, Key: []byte("r")},
		{Op: OpStats},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := AppendTaggedResponses(nil, 0x01020304, []Response{
		{Status: StatusOK, Version: 0x0102030405060708, Cols: [][]byte{[]byte("ab"), nil}},
		{Status: StatusNotFound},
		{Status: StatusOK, Pairs: []Pair{{Key: []byte("k"), Cols: [][]byte{[]byte("v")}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  []byte
		want string
	}{
		{"hello", AppendHello(nil, Version2), "ffffffff4d544b5602"},
		{"request frame", req, "5900008004030201080000000101006b0101000203006b65790102000300000076616c" +
			"0601006305000000000000000100000100000078070100743c0000000100000100000079" +
			"080100740900000004010073000a0003010072050000"},
		{"response frame", resp, "430000800403020103000000000807060504030201020002000000616200000000000001" +
			"0000000000000000000000000000000000000000000000010001006b01000100000076"},
	} {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}

// Frames written back to back come off one stream whole and in order, each
// under its own tag.
func TestTaggedRequestRoundTrip(t *testing.T) {
	var stream []byte
	var err error
	tags := []uint32{0xdeadbeef, 0, 7}
	for i, tag := range tags {
		if stream, err = AppendTaggedRequests(stream, tag, everyRequestShape[i:]); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(bytes.NewReader(stream))
	var d DecodeBuf
	for i, want := range tags {
		tag, n, err := ReadTaggedHeader(r)
		if err != nil || tag != want {
			t.Fatalf("frame %d header: tag=%x err=%v, want tag %x", i, tag, err, want)
		}
		body, err := ReadTaggedRequestBody(r, n, &d)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseRequests(body, &d)
		if err != nil || len(got) != len(everyRequestShape)-i {
			t.Fatalf("frame %d: %d requests (%v)", i, len(got), err)
		}
		for j := range got {
			if !sameRequest(got[j], everyRequestShape[i+j]) {
				t.Fatalf("frame %d request %d: %+v, want %+v", i, j, got[j], everyRequestShape[i+j])
			}
		}
	}
	if _, _, err := ReadTaggedHeader(r); err == nil {
		t.Fatal("a fourth frame read from a stream of three")
	}
}

func TestTaggedResponseRoundTrip(t *testing.T) {
	resps := []Response{
		{Status: StatusOK, Version: 9, Cols: [][]byte{[]byte("one"), []byte("two")}},
		{Status: StatusNotFound},
		{Status: StatusConflict, Version: 17},
		{Status: StatusOK, Pairs: []Pair{{Key: []byte("k"), Cols: [][]byte{[]byte("v")}}}},
	}
	var stream []byte
	var err error
	for tag := uint32(7); tag < 9; tag++ {
		if stream, err = AppendTaggedResponses(stream, tag, resps[tag-7:]); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(bytes.NewReader(stream))
	var d RespDecodeBuf
	for want := uint32(7); want < 9; want++ {
		tag, n, err := ReadTaggedHeader(r)
		if err != nil || tag != want {
			t.Fatalf("header: tag=%d err=%v, want %d", tag, err, want)
		}
		got, err := ReadTaggedResponseBody(r, n, &d)
		if err != nil || len(got) != len(resps)-int(want-7) {
			t.Fatalf("frame %d: %d responses (%v)", want, len(got), err)
		}
		for i := range got {
			if !sameResponse(got[i], resps[int(want-7)+i]) {
				t.Fatalf("frame %d resp %d: %+v want %+v", want, i, got[i], resps[int(want-7)+i])
			}
		}
	}
}

func TestParseRequestsLenient(t *testing.T) {
	reqs := []Request{
		{Op: OpGet, Key: []byte("a")},
		{Op: OpCode(200), Key: []byte("b")}, // unknown opcode: undecodable
		{Op: OpGet, Key: []byte("c")},
	}
	frame, err := AppendTaggedRequests(nil, 1, reqs)
	if err != nil {
		t.Fatal(err)
	}
	body := frame[taggedHeaderSize:]
	var d DecodeBuf
	got, claimed, err := ParseRequestsLenient(body, &d)
	if err != nil {
		t.Fatal(err)
	}
	if claimed != 3 || len(got) != 1 {
		t.Fatalf("claimed=%d decoded=%d want 3/1", claimed, len(got))
	}
	if string(got[0].Key) != "a" {
		t.Fatalf("decoded prefix wrong: %+v", got)
	}

	// A fully well-formed batch decodes whole.
	okFrame, _ := AppendTaggedRequests(nil, 1, []Request{{Op: OpGet, Key: []byte("x")}, {Op: OpRemove, Key: []byte("y")}})
	got, claimed, err = ParseRequestsLenient(okFrame[taggedHeaderSize:], &d)
	if err != nil || claimed != 2 || len(got) != 2 {
		t.Fatalf("well-formed: %d/%d %v", len(got), claimed, err)
	}

	// A forged count is a frame-level error, not a per-request one.
	var forged []byte
	forged = append(forged, 0xff, 0xff, 0x00, 0x00) // claims 65535 requests
	forged = append(forged, 1, 0, 0, 'k')
	if _, _, err := ParseRequestsLenient(forged, &d); err == nil {
		t.Fatal("forged count accepted")
	}

	// Trailing bytes after a complete batch are a frame-level error too.
	trailing := append(append([]byte(nil), okFrame[taggedHeaderSize:]...), 0xAB)
	if _, _, err := ParseRequestsLenient(trailing, &d); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}
