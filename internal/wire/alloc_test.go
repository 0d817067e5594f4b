package wire

import "testing"

// TestRequestRoundTripAllocFree verifies the scratch-based encode/decode
// path allocates nothing in steady state: requests are framed into a reused
// buffer and parsed back by aliasing it.
func TestRequestRoundTripAllocFree(t *testing.T) {
	reqs := []Request{
		{Op: OpGet, Key: []byte("some-key-1")},
		{Op: OpGet, Key: []byte("some-key-2"), Cols: []int{0, 2}},
		{Op: OpPut, Key: []byte("some-key-3"), Puts: []ColData{{Col: 0, Data: []byte("payload")}, {Col: 1, Data: []byte("more")}}},
		{Op: OpRemove, Key: []byte("some-key-4")},
		{Op: OpGetRange, Key: []byte("some"), N: 10, Cols: []int{1}},
	}
	var enc []byte
	var dec DecodeBuf

	allocs := testing.AllocsPerRun(200, func() {
		out, err := AppendTaggedRequests(enc[:0], 1, reqs)
		if err != nil {
			t.Fatal(err)
		}
		enc = out
		got, err := ParseRequests(enc[taggedHeaderSize:], &dec)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(reqs) || string(got[2].Puts[1].Data) != "more" {
			t.Fatalf("bad decode: %+v", got)
		}
	})
	if allocs != 0 {
		t.Fatalf("request round trip allocates %.1f times per run, want 0", allocs)
	}
}

// TestResponseRoundTripAllocFree is the response-side analogue, covering
// the decode a client's Pending does into its own scratch.
func TestResponseRoundTripAllocFree(t *testing.T) {
	resps := []Response{
		{Status: StatusOK, Cols: [][]byte{[]byte("col0"), []byte("col1")}},
		{Status: StatusNotFound},
		{Status: StatusOK, Version: 42},
		{Status: StatusOK, Pairs: []Pair{
			{Key: []byte("k1"), Cols: [][]byte{[]byte("v1")}},
			{Key: []byte("k2"), Cols: [][]byte{[]byte("v2"), []byte("v2b")}},
		}},
	}
	var enc []byte
	var dec RespDecodeBuf

	allocs := testing.AllocsPerRun(200, func() {
		out, err := AppendTaggedResponses(enc[:0], 1, resps)
		if err != nil {
			t.Fatal(err)
		}
		enc = out
		got, err := ParseResponses(enc[taggedHeaderSize:], &dec)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(resps) || string(got[3].Pairs[1].Cols[1]) != "v2b" {
			t.Fatalf("bad decode: %+v", got)
		}
	})
	if allocs != 0 {
		t.Fatalf("response round trip allocates %.1f times per run, want 0", allocs)
	}
}

// TestDecodeBufReuse verifies that consecutive messages through one
// DecodeBuf don't bleed state into each other (stale Cols/Puts/N fields).
func TestDecodeBufReuse(t *testing.T) {
	var dec DecodeBuf
	first := []Request{
		{Op: OpPut, Key: []byte("a"), Puts: []ColData{{Col: 0, Data: []byte("x")}}},
		{Op: OpGetRange, Key: []byte("b"), N: 9, Cols: []int{1, 2}},
	}
	second := []Request{
		{Op: OpGet, Key: []byte("c")},
		{Op: OpRemove, Key: []byte("d")},
	}
	for _, batch := range [][]Request{first, second, first} {
		enc, err := AppendTaggedRequests(nil, 1, batch)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseRequests(enc[taggedHeaderSize:], &dec)
		if err != nil {
			t.Fatal(err)
		}
		for i := range batch {
			if !sameRequest(got[i], batch[i]) {
				t.Fatalf("batch reuse: request %d decoded as %+v, want %+v", i, got[i], batch[i])
			}
		}
	}
}

// TestForgedCountRejected sends a frame whose batch count is wildly larger
// than the body could hold; the decoders must reject it before sizing any
// buffer (a forged count must not amplify a tiny frame into a huge
// allocation).
func TestForgedCountRejected(t *testing.T) {
	body := []byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5, 6, 7, 8}
	var dec DecodeBuf
	if _, err := ParseRequests(body, &dec); err == nil {
		t.Fatal("ParseRequests accepted a forged request count")
	}
	var rdec RespDecodeBuf
	if _, err := ParseResponses(body, &rdec); err == nil {
		t.Fatal("ParseResponses accepted a forged response count")
	}
	if _, _, err := ParseRequestsLenient(body, &dec); err == nil {
		t.Fatal("ParseRequestsLenient accepted a forged request count")
	}
}
