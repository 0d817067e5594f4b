package wire

import (
	"bufio"
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

func roundTripRequests(t *testing.T, reqs []Request) []Request {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteRequests(w, reqs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequests(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{Op: OpGet, Key: []byte("k1"), Cols: []int{0, 3}},
		{Op: OpGet, Key: []byte("")},
		{Op: OpPut, Key: []byte("k2"), Puts: []ColData{{Col: 1, Data: []byte("data")}, {Col: 0, Data: nil}}},
		{Op: OpPutTTL, Key: []byte("kt"), TTL: 60, Puts: []ColData{{Col: 0, Data: []byte("exp")}}},
		{Op: OpTouch, Key: []byte("kt"), TTL: 120},
		{Op: OpRemove, Key: []byte("k3")},
		{Op: OpGetRange, Key: []byte("start"), N: 100, Cols: []int{2}},
		{Op: OpGetRange, Key: nil, N: 0},
	}
	got := roundTripRequests(t, reqs)
	if len(got) != len(reqs) {
		t.Fatalf("got %d requests", len(got))
	}
	for i := range reqs {
		if got[i].Op != reqs[i].Op || !bytes.Equal(got[i].Key, reqs[i].Key) ||
			got[i].N != reqs[i].N || !reflect.DeepEqual(got[i].Cols, reqs[i].Cols) ||
			got[i].TTL != reqs[i].TTL {
			t.Fatalf("request %d mismatch: %+v vs %+v", i, got[i], reqs[i])
		}
		if len(got[i].Puts) != len(reqs[i].Puts) {
			t.Fatalf("request %d puts mismatch", i)
		}
		for j := range reqs[i].Puts {
			if got[i].Puts[j].Col != reqs[i].Puts[j].Col || !bytes.Equal(got[i].Puts[j].Data, reqs[i].Puts[j].Data) {
				t.Fatalf("request %d put %d mismatch", i, j)
			}
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resps := []Response{
		{Status: StatusOK, Version: 1 << 50},
		{Status: StatusNotFound},
		{Status: StatusOK, Cols: [][]byte{[]byte("a"), nil, []byte("ccc")}},
		{Status: StatusOK, Pairs: []Pair{
			{Key: []byte("k1"), Cols: [][]byte{[]byte("v1")}},
			{Key: []byte(""), Cols: nil},
		}},
	}
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteResponses(w, resps); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResponses(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(resps) {
		t.Fatalf("got %d responses", len(got))
	}
	if got[0].Version != resps[0].Version || got[0].Status != StatusOK {
		t.Fatal("response 0 mismatch")
	}
	if got[1].Status != StatusNotFound {
		t.Fatal("response 1 mismatch")
	}
	if len(got[2].Cols) != 3 || string(got[2].Cols[2]) != "ccc" {
		t.Fatalf("response 2 mismatch: %+v", got[2])
	}
	if len(got[3].Pairs) != 2 || string(got[3].Pairs[0].Key) != "k1" || string(got[3].Pairs[0].Cols[0]) != "v1" {
		t.Fatalf("response 3 mismatch: %+v", got[3])
	}
}

func TestRequestQuick(t *testing.T) {
	f := func(key, data []byte, col uint8, n uint16) bool {
		reqs := []Request{
			{Op: OpPut, Key: key, Puts: []ColData{{Col: int(col), Data: data}}},
			{Op: OpGetRange, Key: key, N: int(n)},
		}
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := WriteRequests(w, reqs); err != nil {
			return len(key) > 0xffff // only oversized keys may fail
		}
		got, err := ReadRequests(bufio.NewReader(&buf))
		if err != nil || len(got) != 2 {
			return false
		}
		return bytes.Equal(got[0].Key, key) && got[0].Puts[0].Col == int(col) &&
			bytes.Equal(got[0].Puts[0].Data, data) && got[1].N == int(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTruncatedFrameErrors(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteRequests(w, []Request{{Op: OpGet, Key: []byte("k")}}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		_, err := ReadRequests(bufio.NewReader(bytes.NewReader(full[:cut])))
		if err == nil {
			t.Fatalf("cut %d: expected error", cut)
		}
	}
}

func TestUnknownOpcodeErrors(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	WriteRequests(w, []Request{{Op: OpGet, Key: []byte("k")}})
	b := buf.Bytes()
	b[8] = 99 // clobber the opcode (4B frame len + 4B count)
	if _, err := ReadRequests(bufio.NewReader(bytes.NewReader(b))); err == nil {
		t.Fatal("expected error for unknown opcode")
	}
}

// TestPutColumnOutOfRangeRefused pins column 65 535 as a malformed request in
// every request parser — it would make 65 536 columns, which no response,
// log record or checkpoint entry can count — and column 65 534 as legal.
func TestPutColumnOutOfRangeRefused(t *testing.T) {
	for _, op := range []OpCode{OpPut, OpCas, OpPutTTL} {
		for col, refuse := range map[int]bool{value.MaxCol: false, value.MaxCol + 1: true} {
			frame, err := AppendRequests(nil, []Request{
				{Op: OpGet, Key: []byte("a")},
				{Op: op, Key: []byte("k"), Puts: []ColData{{Col: 0, Data: []byte("x")}, {Col: col, Data: []byte("y")}}},
			})
			if err != nil {
				t.Fatal(err)
			}
			var d DecodeBuf
			if _, err := ParseRequests(frame[4:], &d); (err != nil) != refuse {
				t.Errorf("op %d column %d: ParseRequests error %v, want refused=%v", op, col, err, refuse)
			}
			if _, err := ReadRequests(bufio.NewReader(bytes.NewReader(frame))); (err != nil) != refuse {
				t.Errorf("op %d column %d: ReadRequests error %v, want refused=%v", op, col, err, refuse)
			}
			got, claimed, err := ParseRequestsLenient(frame[4:], &d)
			if want := map[bool]int{true: 1, false: 2}[refuse]; err != nil || claimed != 2 || len(got) != want {
				t.Errorf("op %d column %d: lenient decoded %d of %d (%v), want %d of 2", op, col, len(got), claimed, err, want)
			}
		}
	}
}

// TestRequestCountsBeyondTheirFieldsRefused pins the two counts a request
// carries in fields narrower than an int: a range's N (a u16) and the length
// of a column list, read or put (one byte). At the field's last value the
// request encodes and decodes to itself in both framings; one past it, both
// encoders refuse with an error naming the limit and leave dst as it was —
// not N mod 65 536, not the first 44 of 300 columns.
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
	}
	prefix := []byte("kept")
	for i, c := range cases {
		batch := []Request{{Op: OpGet, Key: []byte("before")}, c.req}
		v1, err1 := AppendRequests(prefix, batch)
		v2, err2 := AppendTaggedRequests(prefix, 7, batch)
		if c.refuse != "" {
			for _, err := range []error{err1, err2} {
				if err == nil || !strings.Contains(err.Error(), c.refuse) {
					t.Errorf("case %d: error %v, want one naming %s", i, err, c.refuse)
				}
			}
			if string(v1) != "kept" || string(v2) != "kept" {
				t.Errorf("case %d: a refused batch left %d and %d bytes behind dst", i, len(v1)-4, len(v2)-4)
			}
			continue
		}
		if err1 != nil || err2 != nil {
			t.Fatalf("case %d: %v, %v", i, err1, err2)
		}
		var d DecodeBuf
		got, err := ParseRequests(v1[len(prefix)+4:], &d)
		if err != nil || len(got) != 2 || got[1].N != c.req.N || len(got[1].Cols) != len(c.req.Cols) || len(got[1].Puts) != len(c.req.Puts) {
			t.Errorf("case %d: decoded %+v (%v)", i, got, err)
		}
		if !bytes.Equal(v1[len(prefix)+4:], v2[len(prefix)+8:]) {
			t.Errorf("case %d: the two framings encode different bodies", i)
		}
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	var hdr [4]byte
	hdr[3] = 0xff // huge length
	_, err := ReadRequests(bufio.NewReader(bytes.NewReader(hdr[:])))
	if err == nil {
		t.Fatal("expected error for oversized frame")
	}
}
