package wire

import (
	"bufio"
	"bytes"
	"testing"
)

// Fuzz targets for the decoders: arbitrary bytes must never panic, and the
// count sanity bounds must keep a tiny input from provoking a huge
// allocation (claimed counts are capped by what the body could honestly
// hold). Corpora are seeded from the encoders so the fuzzer starts on the
// happy path and mutates outward.

func seedRequestBodies(f *testing.F) {
	batches := [][]Request{
		{},
		{{Op: OpGet, Key: []byte("key"), Cols: []int{0, 1}}},
		{
			{Op: OpPut, Key: []byte("k"), Puts: []ColData{{Col: 0, Data: []byte("data")}}},
			{Op: OpCas, Key: []byte("c"), ExpectVersion: 99, Puts: []ColData{{Col: 2, Data: []byte("x")}}},
			{Op: OpRemove, Key: []byte("gone")},
			{Op: OpGetRange, Key: []byte("start"), N: 10, Cols: []int{1}},
			{Op: OpStats},
		},
		{
			{Op: OpPutTTL, Key: []byte("ttl"), TTL: 300, Puts: []ColData{{Col: 0, Data: []byte("d")}}},
			{Op: OpTouch, Key: []byte("ttl"), TTL: 60},
			{Op: OpGetOrLoad, Key: []byte("miss"), Cols: []int{0}},
		},
	}
	for _, reqs := range batches {
		frame, err := AppendRequests(nil, reqs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:]) // body without the length header
	}
}

func FuzzDecodeRequest(f *testing.F) {
	seedRequestBodies(f)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, body []byte) {
		var strict DecodeBuf
		sreqs, serr := ParseRequests(body, &strict)
		var lenient DecodeBuf
		lreqs, claimed, lerr := ParseRequestsLenient(body, &lenient)
		// Lenient accepts a superset of strict: whenever strict succeeds,
		// lenient must decode the identical full batch.
		if serr == nil {
			if lerr != nil {
				t.Fatalf("strict ok but lenient failed: %v", lerr)
			}
			if len(lreqs) != len(sreqs) || claimed != len(sreqs) {
				t.Fatalf("lenient decoded %d/%d, strict %d", len(lreqs), claimed, len(sreqs))
			}
		}
		if lerr == nil && len(lreqs) > claimed {
			t.Fatalf("decoded %d > claimed %d", len(lreqs), claimed)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	batches := [][]Response{
		{},
		{{Status: StatusOK, Version: 1, Cols: [][]byte{[]byte("v")}}},
		{
			{Status: StatusNotFound},
			{Status: StatusConflict, Version: 7},
			{Status: StatusOK, Pairs: []Pair{{Key: []byte("k"), Cols: [][]byte{[]byte("a"), nil}}}},
		},
	}
	for _, resps := range batches {
		frame, err := AppendResponses(nil, resps)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var d RespDecodeBuf
		resps, err := ParseResponses(body, &d)
		if err == nil {
			// Decoded responses must re-encode without panicking.
			if _, err := AppendResponses(nil, resps); err != nil {
				t.Fatalf("re-encode failed: %v", err)
			}
		}
	})
}

// FuzzV2Frame covers the v2 connection preamble: hello detection/decoding
// and the tagged header. Whatever the bytes, the readers must fail cleanly
// (no panic) and never confuse a v1 frame, a v2 frame, and a hello.
func FuzzV2Frame(f *testing.F) {
	f.Add(AppendHello(nil, Version2))
	if tagged, err := AppendTaggedRequests(nil, 1, []Request{{Op: OpGet, Key: []byte("k")}}); err == nil {
		f.Add(tagged)
	}
	if v1, err := AppendRequests(nil, []Request{{Op: OpStats}}); err == nil {
		f.Add(v1)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		isHello := IsHelloPrefix(b)
		if _, err := ReadHello(bytes.NewReader(b)); err == nil && !isHello {
			t.Fatal("ReadHello accepted bytes IsHelloPrefix rejects")
		}
		tag, n, err := ReadTaggedHeader(bufio.NewReader(bytes.NewReader(b)))
		_ = tag
		if err == nil {
			if isHello {
				t.Fatal("bytes parsed as both hello and tagged header")
			}
			if n < 0 || n > MaxMessage {
				t.Fatalf("tagged body length %d out of bounds", n)
			}
			var d DecodeBuf
			rest := b[taggedHeaderSize:]
			if len(rest) >= n {
				body, err := ReadTaggedRequestBody(bytes.NewReader(rest), n, &d)
				if err == nil {
					ParseRequestsLenient(body, &d)
				}
			}
		}
	})
}
