package client

import (
	"fmt"

	"repro/internal/wire"
)

// KV is the typed single-key face of the protocol: each method builds one
// request, hands it to an executor, and turns the response's status into a
// Go result. A method names the statuses its operation defines; any other
// status is an error. Conn and cluster.Cluster each embed one, so the two
// decode statuses the same way.
type KV struct {
	exec func(wire.Request) (wire.Response, error)
}

// NewKV returns the typed face over exec, which executes one request and
// returns a response the caller owns (its slices may be retained).
func NewKV(exec func(wire.Request) (wire.Response, error)) KV {
	return KV{exec: exec}
}

// statusError reports a status the operation does not define.
func statusError(op string, status uint8) error {
	return fmt.Errorf("client: %s status %d", op, status)
}

// Get retrieves columns of one key (nil cols = all). It also returns the
// value's version — the token a subsequent CasPut expects — and ok false if
// the key is absent.
func (kv KV) Get(key []byte, cols []int) (vals [][]byte, ver uint64, ok bool, err error) {
	r, err := kv.exec(wire.Request{Op: wire.OpGet, Key: key, Cols: cols})
	if err != nil {
		return nil, 0, false, err
	}
	switch r.Status {
	case wire.StatusOK:
		return r.Cols, r.Version, true, nil
	case wire.StatusNotFound:
		return nil, 0, false, nil
	}
	return nil, 0, false, statusError("get", r.Status)
}

// GetOrLoad retrieves columns of one key, consulting the server's backend
// tier on a miss (read-through; see OpGetOrLoad). stale true marks a
// degraded answer: an expired resident value served because the backend
// could not be reached. ok false means the key is authoritatively absent.
// A server without a backend (or a backend failure with nothing resident)
// answers StatusError, surfaced here as an error.
func (kv KV) GetOrLoad(key []byte, cols []int) (vals [][]byte, ver uint64, stale, ok bool, err error) {
	r, err := kv.exec(wire.Request{Op: wire.OpGetOrLoad, Key: key, Cols: cols})
	if err != nil {
		return nil, 0, false, false, err
	}
	switch r.Status {
	case wire.StatusOK, wire.StatusStale:
		return r.Cols, r.Version, r.Status == wire.StatusStale, true, nil
	case wire.StatusNotFound:
		return nil, 0, false, false, nil
	}
	return nil, 0, false, false, statusError("getorload", r.Status)
}

// Put writes columns of one key and returns the new version.
func (kv KV) Put(key []byte, puts []wire.ColData) (uint64, error) {
	return kv.write("put", wire.Request{Op: wire.OpPut, Key: key, Puts: puts})
}

// PutSimple writes data as column 0 of key.
func (kv KV) PutSimple(key, data []byte) (uint64, error) {
	return kv.Put(key, []wire.ColData{{Col: 0, Data: data}})
}

// PutTTL writes columns of one key with a time-to-live in seconds (0 =
// never expires, like Put). After the TTL lapses the key reads as absent
// and the server's maintenance loop eventually sweeps it.
func (kv KV) PutTTL(key []byte, puts []wire.ColData, ttlSeconds uint32) (uint64, error) {
	return kv.write("putttl", wire.Request{Op: wire.OpPutTTL, Key: key, Puts: puts, TTL: ttlSeconds})
}

// PutSimpleTTL writes data as column 0 of key with a TTL in seconds.
func (kv KV) PutSimpleTTL(key, data []byte, ttlSeconds uint32) (uint64, error) {
	return kv.PutTTL(key, []wire.ColData{{Col: 0, Data: data}}, ttlSeconds)
}

// write executes an unconditional write, whose one defined status is OK.
func (kv KV) write(op string, req wire.Request) (uint64, error) {
	r, err := kv.exec(req)
	if err != nil {
		return 0, err
	}
	if r.Status != wire.StatusOK {
		return 0, statusError(op, r.Status)
	}
	return r.Version, nil
}

// Touch resets one key's TTL (seconds from now; 0 removes the expiry)
// without rewriting its value. ok is false if the key is absent or already
// expired.
func (kv KV) Touch(key []byte, ttlSeconds uint32) (ver uint64, ok bool, err error) {
	r, err := kv.exec(wire.Request{Op: wire.OpTouch, Key: key, TTL: ttlSeconds})
	if err != nil {
		return 0, false, err
	}
	switch r.Status {
	case wire.StatusOK:
		return r.Version, true, nil
	case wire.StatusNotFound:
		return 0, false, nil
	}
	return 0, false, statusError("touch", r.Status)
}

// CasPut conditionally writes columns of one key: the write applies only if
// the key's current version equals expect (0 = key absent, so expect 0 is
// create-if-absent). On success it returns the new version with ok true; on
// conflict, the key's current version with ok false so the caller can
// re-Get, rebase, and retry.
func (kv KV) CasPut(key []byte, expect uint64, puts []wire.ColData) (ver uint64, ok bool, err error) {
	r, err := kv.exec(wire.Request{Op: wire.OpCas, Key: key, ExpectVersion: expect, Puts: puts})
	if err != nil {
		return 0, false, err
	}
	switch r.Status {
	case wire.StatusOK:
		return r.Version, true, nil
	case wire.StatusConflict:
		return r.Version, false, nil
	}
	return 0, false, statusError("cas", r.Status)
}

// Remove deletes one key; reports whether it existed.
func (kv KV) Remove(key []byte) (bool, error) {
	r, err := kv.exec(wire.Request{Op: wire.OpRemove, Key: key})
	if err != nil {
		return false, err
	}
	switch r.Status {
	case wire.StatusOK:
		return true, nil
	case wire.StatusNotFound:
		return false, nil
	}
	return false, statusError("remove", r.Status)
}

// GetRange returns up to n pairs starting at the first key >= start.
func (kv KV) GetRange(start []byte, n int, cols []int) ([]wire.Pair, error) {
	r, err := kv.exec(wire.Request{Op: wire.OpGetRange, Key: start, N: n, Cols: cols})
	if err != nil {
		return nil, err
	}
	if r.Status != wire.StatusOK {
		return nil, statusError("getrange", r.Status)
	}
	return r.Pairs, nil
}
