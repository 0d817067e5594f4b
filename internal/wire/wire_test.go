package wire

import (
	"bufio"
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

// sameRequest reports whether got carries every field of want, an empty and
// a nil byte string counting as equal.
func sameRequest(got, want Request) bool {
	if got.Op != want.Op || !bytes.Equal(got.Key, want.Key) || got.N != want.N ||
		got.ExpectVersion != want.ExpectVersion || got.TTL != want.TTL ||
		len(got.Cols) != len(want.Cols) || len(got.Puts) != len(want.Puts) {
		return false
	}
	for i := range want.Cols {
		if got.Cols[i] != want.Cols[i] {
			return false
		}
	}
	for i := range want.Puts {
		if got.Puts[i].Col != want.Puts[i].Col || !bytes.Equal(got.Puts[i].Data, want.Puts[i].Data) {
			return false
		}
	}
	return true
}

// sameResponse is sameRequest for responses.
func sameResponse(got, want Response) bool {
	if got.Status != want.Status || got.Version != want.Version || !sameCols(got.Cols, want.Cols) ||
		len(got.Pairs) != len(want.Pairs) {
		return false
	}
	for i := range want.Pairs {
		if !bytes.Equal(got.Pairs[i].Key, want.Pairs[i].Key) || !sameCols(got.Pairs[i].Cols, want.Pairs[i].Cols) {
			return false
		}
	}
	return true
}

func sameCols(got, want [][]byte) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			return false
		}
	}
	return true
}

// readRequests takes one tagged request frame off the front of stream, as a
// server's reader does.
func readRequests(stream []byte, d *DecodeBuf) (uint32, []Request, error) {
	r := bufio.NewReader(bytes.NewReader(stream))
	tag, n, err := ReadTaggedHeader(r)
	if err != nil {
		return 0, nil, err
	}
	body, err := ReadTaggedRequestBody(r, n, d)
	if err != nil {
		return 0, nil, err
	}
	reqs, err := ParseRequests(body, d)
	return tag, reqs, err
}

// everyRequestShape holds one request of every opcode, with each optional
// field set somewhere.
var everyRequestShape = []Request{
	{Op: OpGet, Key: []byte("k1"), Cols: []int{0, 3}},
	{Op: OpGet, Key: []byte("")},
	{Op: OpPut, Key: []byte("k2"), Puts: []ColData{{Col: 1, Data: []byte("data")}, {Col: 0, Data: nil}}},
	{Op: OpCas, Key: []byte("key"), ExpectVersion: 1 << 40, Puts: []ColData{{Col: 3, Data: []byte("v")}}},
	{Op: OpPutTTL, Key: []byte("kt"), TTL: 60, Puts: []ColData{{Col: 0, Data: []byte("exp")}}},
	{Op: OpTouch, Key: []byte("kt"), TTL: 120},
	{Op: OpGetOrLoad, Key: []byte("miss"), Cols: []int{2}},
	{Op: OpRemove, Key: []byte("k3")},
	{Op: OpGetRange, Key: []byte("start"), N: 100, Cols: []int{2}},
	{Op: OpGetRange, Key: nil, N: 0},
	{Op: OpStats},
}

func TestRequestRoundTrip(t *testing.T) {
	frame, err := AppendTaggedRequests(nil, 1, everyRequestShape)
	if err != nil {
		t.Fatal(err)
	}
	var d DecodeBuf
	_, got, err := readRequests(frame, &d)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(everyRequestShape) {
		t.Fatalf("got %d requests", len(got))
	}
	for i, want := range everyRequestShape {
		if !sameRequest(got[i], want) {
			t.Fatalf("request %d mismatch: %+v vs %+v", i, got[i], want)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resps := []Response{
		{Status: StatusOK, Version: 1 << 50},
		{Status: StatusNotFound},
		{Status: StatusConflict, Version: 17},
		{Status: StatusStale, Version: 3, Cols: [][]byte{[]byte("old")}},
		{Status: StatusOK, Cols: [][]byte{[]byte("a"), nil, []byte("ccc")}},
		{Status: StatusOK, Pairs: []Pair{
			{Key: []byte("k1"), Cols: [][]byte{[]byte("v1")}},
			{Key: []byte(""), Cols: nil},
		}},
	}
	frame, err := AppendTaggedResponses(nil, 1, resps)
	if err != nil {
		t.Fatal(err)
	}
	var d RespDecodeBuf
	got, err := ParseResponses(frame[taggedHeaderSize:], &d)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(resps) {
		t.Fatalf("got %d responses", len(got))
	}
	for i, want := range resps {
		if !sameResponse(got[i], want) {
			t.Fatalf("response %d mismatch: %+v vs %+v", i, got[i], want)
		}
	}
}

func TestRequestQuick(t *testing.T) {
	f := func(key, data []byte, col uint8, n uint16) bool {
		reqs := []Request{
			{Op: OpPut, Key: key, Puts: []ColData{{Col: int(col), Data: data}}},
			{Op: OpGetRange, Key: key, N: int(n)},
		}
		frame, err := AppendTaggedRequests(nil, 1, reqs)
		if len(key) > MaxKeyLen {
			return err != nil // only oversized keys may fail, and they must
		}
		if err != nil {
			return false
		}
		var d DecodeBuf
		_, got, err := readRequests(frame, &d)
		return err == nil && len(got) == 2 && sameRequest(got[0], reqs[0]) && sameRequest(got[1], reqs[1])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if !f(make([]byte, MaxKeyLen+1), []byte("d"), 0, 1) {
		t.Fatal("a key one byte past MaxKeyLen was encoded")
	}
}

func TestTruncatedFrameErrors(t *testing.T) {
	full, err := AppendTaggedRequests(nil, 1, []Request{{Op: OpGet, Key: []byte("k")}})
	if err != nil {
		t.Fatal(err)
	}
	var d DecodeBuf
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := readRequests(full[:cut], &d); err == nil {
			t.Fatalf("cut %d: expected error", cut)
		}
	}
}

func TestUnknownOpcodeErrors(t *testing.T) {
	frame, err := AppendTaggedRequests(nil, 1, []Request{{Op: OpGet, Key: []byte("k")}})
	if err != nil {
		t.Fatal(err)
	}
	frame[taggedHeaderSize+4] = 99 // clobber the opcode, behind the header and the count
	var d DecodeBuf
	if _, _, err := readRequests(frame, &d); err == nil {
		t.Fatal("expected error for unknown opcode")
	}
}

// TestPutColumnOutOfRangeRefused pins column 65 535 as a malformed request in
// both request parsers — it would make 65 536 columns, which no response,
// log record or checkpoint entry can count — and column 65 534 as legal.
func TestPutColumnOutOfRangeRefused(t *testing.T) {
	for _, op := range []OpCode{OpPut, OpCas, OpPutTTL} {
		for col, refuse := range map[int]bool{value.MaxCol: false, value.MaxCol + 1: true} {
			frame, err := AppendTaggedRequests(nil, 1, []Request{
				{Op: OpGet, Key: []byte("a")},
				{Op: op, Key: []byte("k"), Puts: []ColData{{Col: 0, Data: []byte("x")}, {Col: col, Data: []byte("y")}}},
			})
			if err != nil {
				t.Fatal(err)
			}
			var d DecodeBuf
			if _, err := ParseRequests(frame[taggedHeaderSize:], &d); (err != nil) != refuse {
				t.Errorf("op %d column %d: ParseRequests error %v, want refused=%v", op, col, err, refuse)
			}
			got, claimed, err := ParseRequestsLenient(frame[taggedHeaderSize:], &d)
			if want := map[bool]int{true: 1, false: 2}[refuse]; err != nil || claimed != 2 || len(got) != want {
				t.Errorf("op %d column %d: lenient decoded %d of %d (%v), want %d of 2", op, col, len(got), claimed, err, want)
			}
		}
	}
}

// TestRequestCountsBeyondTheirFieldsRefused pins the counts a frame carries
// in fields narrower than an int: a key's length and a range's N (u16s) and
// the length of a column list, read or put (one byte). At the field's last
// value the request encodes and decodes to itself; one past it, the encoder
// refuses with an error naming the limit and leaves dst as it was — not N
// mod 65 536, not the first 44 of 300 columns, not a key cut to its low 16
// bits that no decoder can find the end of. A response's pair key is held to
// the same bound.
func TestRequestCountsBeyondTheirFieldsRefused(t *testing.T) {
	cols := func(n int) []int { return make([]int, n) }
	puts := func(n int) []ColData { return make([]ColData, n) }
	cases := []struct {
		req    Request
		refuse string // "" = legal
	}{
		{Request{Op: OpGetRange, Key: []byte("k"), N: MaxRangeN}, ""},
		{Request{Op: OpGetRange, Key: []byte("k"), N: MaxRangeN + 1}, "65535"},
		{Request{Op: OpGetRange, Key: []byte("k"), N: 70000}, "65535"},
		{Request{Op: OpGetRange, Key: []byte("k"), N: -1}, "65535"},
		{Request{Op: OpGetRange, Key: []byte("k"), N: 10, Cols: cols(MaxColList)}, ""},
		{Request{Op: OpGetRange, Key: []byte("k"), N: 10, Cols: cols(MaxColList + 1)}, "255"},
		{Request{Op: OpGet, Key: []byte("k"), Cols: cols(MaxColList)}, ""},
		{Request{Op: OpGet, Key: []byte("k"), Cols: cols(300)}, "255"},
		{Request{Op: OpPut, Key: []byte("k"), Puts: puts(MaxColList)}, ""},
		{Request{Op: OpPut, Key: []byte("k"), Puts: puts(MaxColList + 1)}, "255"},
		{Request{Op: OpGet, Key: make([]byte, MaxKeyLen)}, ""},
		{Request{Op: OpGet, Key: make([]byte, MaxKeyLen+1)}, "65535"},
		{Request{Op: OpPut, Key: make([]byte, 70000), Puts: puts(1)}, "65535"},
	}
	prefix := []byte("kept")
	for i, c := range cases {
		batch := []Request{{Op: OpGet, Key: []byte("before")}, c.req}
		frame, err := AppendTaggedRequests(prefix, 7, batch)
		if c.refuse != "" {
			if err == nil || !strings.Contains(err.Error(), c.refuse) {
				t.Errorf("case %d: error %v, want one naming %s", i, err, c.refuse)
			}
			if string(frame) != "kept" {
				t.Errorf("case %d: a refused batch left %d bytes behind dst", i, len(frame)-4)
			}
			continue
		}
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		var d DecodeBuf
		tag, got, err := readRequests(frame[len(prefix):], &d)
		if err != nil || tag != 7 || len(got) != 2 || !sameRequest(got[1], c.req) {
			t.Errorf("case %d: decoded %d requests under tag %d (%v)", i, len(got), tag, err)
		}
	}

	for klen, refuse := range map[int]bool{MaxKeyLen: false, MaxKeyLen + 1: true} {
		resps := []Response{{Status: StatusOK}, {Status: StatusOK, Pairs: []Pair{{Key: make([]byte, klen), Cols: [][]byte{[]byte("v")}}}}}
		frame, err := AppendTaggedResponses(prefix, 7, resps)
		if refuse {
			if err == nil || !strings.Contains(err.Error(), "65535") || string(frame) != "kept" {
				t.Errorf("a pair key of %d bytes: error %v and %d bytes behind dst, want a refusal naming 65535 and none", klen, err, len(frame)-4)
			}
			continue
		}
		var d RespDecodeBuf
		got, err := ParseResponses(frame[len(prefix)+taggedHeaderSize:], &d)
		if err != nil || len(got) != 2 || !sameResponse(got[1], resps[1]) {
			t.Errorf("a pair key of %d bytes: decoded %d responses (%v)", klen, len(got), err)
		}
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	hdr := []byte{1, 0, 0, 0x84, 1, 0, 0, 0} // tagged, a length one byte past MaxMessage
	if _, _, err := ReadTaggedHeader(bufio.NewReader(bytes.NewReader(hdr))); err == nil {
		t.Fatal("expected error for oversized frame")
	}
	var d DecodeBuf
	if _, err := ReadTaggedRequestBody(bytes.NewReader(nil), MaxMessage+1, &d); err == nil {
		t.Fatal("expected error for an oversized body")
	}
}
