package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
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
		frame, err := AppendTaggedRequests(nil, 1, reqs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[taggedHeaderSize:]) // body without the length and tag words
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
		frame, err := AppendTaggedResponses(nil, 1, resps)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[taggedHeaderSize:])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var d RespDecodeBuf
		resps, err := ParseResponses(body, &d)
		if err == nil {
			// Decoded responses must re-encode without panicking.
			if _, err := AppendTaggedResponses(nil, 1, resps); err != nil {
				t.Fatalf("re-encode failed: %v", err)
			}
		}
	})
}

// FuzzV2Frame covers the connection preamble: hello detection and decoding
// and the tagged header. Whatever the bytes, the readers must fail cleanly
// (no panic), never take one prefix for both a hello and a frame, never
// accept a hello older than Version2 and never a length word without the
// tagged-frame bit.
func FuzzV2Frame(f *testing.F) {
	f.Add(AppendHello(nil, Version2))
	if tagged, err := AppendTaggedRequests(nil, 1, []Request{{Op: OpGet, Key: []byte("k")}}); err == nil {
		f.Add(tagged)
	}
	f.Add(AppendHello(nil, 1))
	f.Fuzz(func(t *testing.T, b []byte) {
		isHello := IsHelloPrefix(b)
		if ver, err := ReadHello(bytes.NewReader(b)); err == nil {
			if !isHello {
				t.Fatal("ReadHello accepted bytes IsHelloPrefix rejects")
			}
			if ver < Version2 {
				t.Fatalf("ReadHello accepted version %d", ver)
			}
		}
		_, n, err := ReadTaggedHeader(bufio.NewReader(bytes.NewReader(b)))
		if err == nil {
			if isHello {
				t.Fatal("bytes parsed as both hello and tagged header")
			}
			if binary.LittleEndian.Uint32(b)&v2FrameBit == 0 {
				t.Fatal("ReadTaggedHeader accepted a length word without the tagged-frame bit")
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
