// Package client is the Go client library for the Masstree server. It
// supports batched queries — many operations per network message — which §7
// shows is vital for throughput on small-operation workloads.
//
// Two clients are provided. Client speaks protocol v1: it owns one TCP
// connection, allows one batch in flight, and is safe for one goroutine at
// a time; open several clients for parallel load (the paper's benchmarks
// run many client processes against per-core server queues).
//
// Conn speaks protocol v2: it is safe for concurrent use and keeps many
// tagged batches in flight on one connection, so neither side ever idles
// waiting for the other's round trip. Issue batches asynchronously with Go
// and collect them with Wait:
//
//	conn, err := client.DialConn(addr, client.WithWindow(16))
//	...
//	p1 := conn.Go(batch1) // sent; does not wait for the response
//	p2 := conn.Go(batch2) // pipelined behind batch1
//	resps1, err := p1.Wait()
//	...read resps1...
//	p1.Release() // recycle decode buffers; resps1 invalid after this
//	resps2, err := p2.Wait()
//	...
//
// Both clients expose versioned conditional writes (CasPut): every get
// returns the value's version, and a CasPut applies only if the key's
// version still matches, enabling lock-free read-modify-write across the
// network.
package client

import (
	"bufio"
	"fmt"
	"net"

	"repro/internal/wire"
)

// Client is a connection to a Masstree server.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	enc  []byte             // encode buffer, reused across Do/Send calls
	dec  wire.RespDecodeBuf // decode scratch for DoReuse
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &Client{
		conn: conn,
		r:    bufio.NewReaderSize(conn, 1<<16),
		w:    bufio.NewWriterSize(conn, 1<<16),
	}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Do executes a batch of requests in one round trip and returns the
// responses in request order. The responses own their memory and may be
// retained; throughput-sensitive callers should prefer DoReuse.
func (c *Client) Do(reqs []wire.Request) ([]wire.Response, error) {
	if err := wire.WriteRequestsInto(c.w, reqs, &c.enc); err != nil {
		return nil, err
	}
	resps, err := wire.ReadResponses(c.r)
	if err != nil {
		return nil, err
	}
	if len(resps) != len(reqs) {
		return nil, fmt.Errorf("client: %d responses for %d requests", len(resps), len(reqs))
	}
	return resps, nil
}

// maxRetainedScratch bounds the encode/decode scratch kept between calls;
// one oversized batch doesn't pin its footprint for the client's lifetime.
const maxRetainedScratch = 1 << 20

// DoReuse is Do decoding into the client's reusable buffers: the returned
// responses (and every slice they reference) are valid only until the next
// DoReuse/Recv call on this client. In steady state a DoReuse round trip
// performs no client-side allocations.
//
//masstree:noalloc
func (c *Client) DoReuse(reqs []wire.Request) ([]wire.Response, error) {
	if cap(c.enc) > maxRetainedScratch {
		c.enc = nil
	}
	c.dec.Shrink(maxRetainedScratch)
	if err := wire.WriteRequestsInto(c.w, reqs, &c.enc); err != nil {
		return nil, err
	}
	resps, err := wire.ReadResponsesInto(c.r, &c.dec)
	if err != nil {
		return nil, err
	}
	if len(resps) != len(reqs) {
		return nil, fmt.Errorf("client: %d responses for %d requests", len(resps), len(reqs)) //lint:allow noalloc protocol-violation error path; a correct server never triggers it
	}
	return resps, nil
}

// Get retrieves columns of one key (nil = all). ok is false if absent.
func (c *Client) Get(key []byte, cols []int) ([][]byte, bool, error) {
	resps, err := c.Do([]wire.Request{{Op: wire.OpGet, Key: key, Cols: cols}})
	if err != nil {
		return nil, false, err
	}
	if resps[0].Status != wire.StatusOK {
		return nil, false, nil
	}
	return resps[0].Cols, true, nil
}

// Put writes columns of one key and returns the new version.
func (c *Client) Put(key []byte, puts []wire.ColData) (uint64, error) {
	resps, err := c.Do([]wire.Request{{Op: wire.OpPut, Key: key, Puts: puts}})
	if err != nil {
		return 0, err
	}
	if resps[0].Status != wire.StatusOK {
		return 0, fmt.Errorf("client: put status %d", resps[0].Status)
	}
	return resps[0].Version, nil
}

// PutSimple writes data as column 0 of key.
func (c *Client) PutSimple(key, data []byte) (uint64, error) {
	return c.Put(key, []wire.ColData{{Col: 0, Data: data}})
}

// CasPut conditionally writes columns of one key: the write applies only
// if the key's current version equals expect (0 = key absent). On success
// it returns the new version with ok true; on conflict, the key's current
// version with ok false. (OpCas is carried by the v1 framing too — only
// pipelining needs the v2 Conn.)
func (c *Client) CasPut(key []byte, expect uint64, puts []wire.ColData) (ver uint64, ok bool, err error) {
	resps, err := c.Do([]wire.Request{{Op: wire.OpCas, Key: key, ExpectVersion: expect, Puts: puts}})
	if err != nil {
		return 0, false, err
	}
	switch resps[0].Status {
	case wire.StatusOK:
		return resps[0].Version, true, nil
	case wire.StatusConflict:
		return resps[0].Version, false, nil
	}
	return 0, false, fmt.Errorf("client: cas status %d", resps[0].Status)
}

// GetVer is Get also returning the value's version — the token CasPut
// expects.
func (c *Client) GetVer(key []byte, cols []int) (vals [][]byte, ver uint64, ok bool, err error) {
	resps, err := c.Do([]wire.Request{{Op: wire.OpGet, Key: key, Cols: cols}})
	if err != nil {
		return nil, 0, false, err
	}
	if resps[0].Status != wire.StatusOK {
		return nil, 0, false, nil
	}
	return resps[0].Cols, resps[0].Version, true, nil
}

// Remove deletes one key; reports whether it existed.
func (c *Client) Remove(key []byte) (bool, error) {
	resps, err := c.Do([]wire.Request{{Op: wire.OpRemove, Key: key}})
	if err != nil {
		return false, err
	}
	return resps[0].Status == wire.StatusOK, nil
}

// GetRange returns up to n pairs starting at the first key >= start.
func (c *Client) GetRange(start []byte, n int, cols []int) ([]wire.Pair, error) {
	resps, err := c.Do([]wire.Request{{Op: wire.OpGetRange, Key: start, N: n, Cols: cols}})
	if err != nil {
		return nil, err
	}
	if resps[0].Status != wire.StatusOK {
		return nil, fmt.Errorf("client: getrange status %d", resps[0].Status)
	}
	return resps[0].Pairs, nil
}

// Stats returns the server's numeric metrics. Non-numeric metrics (e.g.
// flush_last_error) are skipped; use StatsRaw to see everything.
func (c *Client) Stats() (map[string]int64, error) {
	raw, err := c.StatsRaw()
	if err != nil {
		return nil, err
	}
	return numericStats(raw), nil
}

// StatsRaw returns every metric the server reports, verbatim, including
// non-numeric ones like flush_last_error.
func (c *Client) StatsRaw() (map[string]string, error) {
	resps, err := c.Do([]wire.Request{{Op: wire.OpStats}})
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(resps[0].Pairs))
	for _, p := range resps[0].Pairs {
		out[string(p.Key)] = string(p.Cols[0])
	}
	return out, nil
}

// Send writes a request batch without waiting for its responses, allowing
// multiple batches in flight on the connection (pipelining). Each Send must
// eventually be matched by one Recv, in order.
func (c *Client) Send(reqs []wire.Request) error {
	return wire.WriteRequestsInto(c.w, reqs, &c.enc)
}

// Recv reads the next response batch for an earlier Send.
func (c *Client) Recv() ([]wire.Response, error) {
	return wire.ReadResponses(c.r)
}
