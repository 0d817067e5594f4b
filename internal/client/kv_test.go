package client

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/wire"
)

// kvResult is one KV call's results, flattened so every method can be
// checked by the same rules.
type kvResult struct {
	ver   uint64
	ok    bool // the value, write or removal is there (false when absent)
	stale bool // GetOrLoad's degraded-answer mark
	data  any  // columns or pairs returned; nil for a write
	err   error
}

// The outcomes a status can decode to.
const (
	isValue    = "value"    // ok, the response's version and data
	isAbsent   = "absent"   // not ok, no version, no data, no error
	isConflict = "conflict" // not ok, the response's (current) version
	isError    = "error"    // an error and nothing else
)

// TestKVStatusDecoding runs every KV method against a fake executor
// answering every status, and a transport error, and checks which results
// are values, which are absent and which are errors. Among the rows: a Put
// answered StatusError is an error, not version 0 and success; a Get or a
// Remove answered StatusError is an error, not "absent".
func TestKVStatusDecoding(t *testing.T) {
	key := []byte("k")
	cols := []int{1, 2}
	puts := []wire.ColData{{Col: 0, Data: []byte("d")}}
	methods := []struct {
		name string
		call func(KV) kvResult
		req  wire.Request            // the request the method must build
		want map[uint8]string        // outcome per status; unlisted = isError
		data func(wire.Response) any // the data a value carries (nil: none)
	}{
		{"Get", func(kv KV) kvResult {
			v, ver, ok, err := kv.Get(key, cols)
			return kvResult{ver: ver, ok: ok, data: untypedNil(v), err: err}
		}, wire.Request{Op: wire.OpGet, Key: key, Cols: cols},
			map[uint8]string{wire.StatusOK: isValue, wire.StatusNotFound: isAbsent}, respCols},
		{"GetOrLoad", func(kv KV) kvResult {
			v, ver, stale, ok, err := kv.GetOrLoad(key, cols)
			return kvResult{ver: ver, ok: ok, stale: stale, data: untypedNil(v), err: err}
		}, wire.Request{Op: wire.OpGetOrLoad, Key: key, Cols: cols},
			map[uint8]string{wire.StatusOK: isValue, wire.StatusStale: isValue, wire.StatusNotFound: isAbsent}, respCols},
		{"Put", func(kv KV) kvResult {
			ver, err := kv.Put(key, puts)
			return kvResult{ver: ver, ok: err == nil, err: err}
		}, wire.Request{Op: wire.OpPut, Key: key, Puts: puts},
			map[uint8]string{wire.StatusOK: isValue}, nil},
		{"PutSimple", func(kv KV) kvResult {
			ver, err := kv.PutSimple(key, []byte("d"))
			return kvResult{ver: ver, ok: err == nil, err: err}
		}, wire.Request{Op: wire.OpPut, Key: key, Puts: puts},
			map[uint8]string{wire.StatusOK: isValue}, nil},
		{"PutTTL", func(kv KV) kvResult {
			ver, err := kv.PutTTL(key, puts, 30)
			return kvResult{ver: ver, ok: err == nil, err: err}
		}, wire.Request{Op: wire.OpPutTTL, Key: key, Puts: puts, TTL: 30},
			map[uint8]string{wire.StatusOK: isValue}, nil},
		{"PutSimpleTTL", func(kv KV) kvResult {
			ver, err := kv.PutSimpleTTL(key, []byte("d"), 30)
			return kvResult{ver: ver, ok: err == nil, err: err}
		}, wire.Request{Op: wire.OpPutTTL, Key: key, Puts: puts, TTL: 30},
			map[uint8]string{wire.StatusOK: isValue}, nil},
		{"Touch", func(kv KV) kvResult {
			ver, ok, err := kv.Touch(key, 30)
			return kvResult{ver: ver, ok: ok, err: err}
		}, wire.Request{Op: wire.OpTouch, Key: key, TTL: 30},
			map[uint8]string{wire.StatusOK: isValue, wire.StatusNotFound: isAbsent}, nil},
		{"CasPut", func(kv KV) kvResult {
			ver, ok, err := kv.CasPut(key, 5, puts)
			return kvResult{ver: ver, ok: ok, err: err}
		}, wire.Request{Op: wire.OpCas, Key: key, ExpectVersion: 5, Puts: puts},
			map[uint8]string{wire.StatusOK: isValue, wire.StatusConflict: isConflict}, nil},
		{"Remove", func(kv KV) kvResult {
			ok, err := kv.Remove(key)
			return kvResult{ok: ok, err: err}
		}, wire.Request{Op: wire.OpRemove, Key: key},
			map[uint8]string{wire.StatusOK: isValue, wire.StatusNotFound: isAbsent}, nil},
		{"GetRange", func(kv KV) kvResult {
			pairs, err := kv.GetRange(key, 10, cols)
			return kvResult{ok: err == nil, data: untypedNil(pairs), err: err}
		}, wire.Request{Op: wire.OpGetRange, Key: key, N: 10, Cols: cols},
			map[uint8]string{wire.StatusOK: isValue}, respPairs},
	}
	statuses := map[uint8]string{
		wire.StatusOK: "OK", wire.StatusNotFound: "NotFound", wire.StatusError: "Error",
		wire.StatusConflict: "Conflict", wire.StatusStale: "Stale",
	}
	transport := errors.New("connection reset")

	for _, m := range methods {
		for status, sname := range statuses {
			t.Run(m.name+"/"+sname, func(t *testing.T) {
				resp := wire.Response{
					Status:  status,
					Version: 42,
					Cols:    [][]byte{[]byte("c1"), []byte("c2")},
					Pairs:   []wire.Pair{{Key: []byte("k"), Cols: [][]byte{[]byte("p")}}},
				}
				var got wire.Request
				r := m.call(NewKV(func(req wire.Request) (wire.Response, error) {
					got = req
					return resp, nil
				}))
				if !reflect.DeepEqual(got, m.req) {
					t.Fatalf("request %+v, want %+v", got, m.req)
				}
				want, listed := m.want[status]
				if !listed {
					want = isError
				}
				var data any
				if m.data != nil && want == isValue {
					data = m.data(resp)
				}
				ver := resp.Version
				if m.req.Op == wire.OpRemove || m.req.Op == wire.OpGetRange {
					ver = 0 // their results carry no version
				}
				checkKVResult(t, r, want, ver, data, status == wire.StatusStale)
			})
		}
		t.Run(m.name+"/transport", func(t *testing.T) {
			r := m.call(NewKV(func(wire.Request) (wire.Response, error) {
				return wire.Response{Status: wire.StatusOK, Version: 42}, transport
			}))
			if !errors.Is(r.err, transport) {
				t.Fatalf("err %v, want the transport error", r.err)
			}
			checkKVResult(t, r, isError, 0, nil, false)
		})
	}
}

func checkKVResult(t *testing.T, r kvResult, want string, ver uint64, data any, stale bool) {
	t.Helper()
	var wantR kvResult
	switch want {
	case isValue:
		wantR = kvResult{ver: ver, ok: true, stale: stale, data: data}
	case isConflict:
		wantR = kvResult{ver: ver}
	case isAbsent:
	case isError:
		if r.err == nil {
			t.Fatalf("got %+v, want an error", r)
		}
		r.err = nil
	}
	if r.ver != wantR.ver || r.ok != wantR.ok || r.stale != wantR.stale || r.err != nil ||
		!reflect.DeepEqual(r.data, wantR.data) {
		t.Fatalf("got %+v, want %s: %+v", r, want, wantR)
	}
}

func respCols(r wire.Response) any  { return r.Cols }
func respPairs(r wire.Response) any { return r.Pairs }

// untypedNil maps a nil slice to an untyped nil, so an absent result and a
// result with no data compare equal.
func untypedNil[S ~[]E, E any](s S) any {
	if s == nil {
		return nil
	}
	return s
}
