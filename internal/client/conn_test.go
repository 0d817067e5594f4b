package client

import (
	"bufio"
	"context"
	"errors"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// hangingServer accepts one connection, completes the v2 hello exchange,
// then reads and discards frames forever without ever answering — a peer
// that is alive at the TCP level but dead at the protocol level.
func hangingServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var conn net.Conn
	connCh := make(chan net.Conn, 1)
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		connCh <- c
		r := bufio.NewReader(c)
		if _, err := wire.ReadHello(r); err != nil {
			return
		}
		w := bufio.NewWriter(c)
		if err := wire.WriteHello(w, wire.Version2); err != nil || w.Flush() != nil {
			return
		}
		buf := make([]byte, 4096)
		for {
			if _, err := c.Read(buf); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String(), func() {
		ln.Close()
		select {
		case conn = <-connCh:
			conn.Close()
		default:
		}
		<-done
	}
}

// statusServer accepts connections and answers every request of every frame
// with the given status and nothing else: just
// enough protocol to prove a healthy connection stays healthy (StatusOK), or
// to stand for a server that could decode a frame and would not serve what
// it asked (StatusError).
func statusServer(t *testing.T, status uint8) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	answer := func(n int) []wire.Response {
		resps := make([]wire.Response, n)
		for i := range resps {
			resps[i].Status = status
		}
		return resps
	}
	var conns sync.WaitGroup
	serve := func(c net.Conn) {
		defer conns.Done()
		defer c.Close()
		r, w := bufio.NewReader(c), bufio.NewWriter(c)
		if _, err := wire.ReadHello(r); err != nil {
			return
		}
		if err := wire.WriteHello(w, wire.Version2); err != nil || w.Flush() != nil {
			return
		}
		var dec wire.DecodeBuf
		for {
			tag, n, err := wire.ReadTaggedHeader(r)
			if err != nil {
				return
			}
			body, err := wire.ReadTaggedRequestBody(r, n, &dec)
			if err != nil {
				return
			}
			reqs, claimed, err := wire.ParseRequestsLenient(body, &dec)
			if err != nil {
				return
			}
			out, err := wire.AppendTaggedResponses(nil, tag, answer(max(claimed, len(reqs))))
			if err != nil {
				return
			}
			if _, err := w.Write(out); err != nil || w.Flush() != nil {
				return
			}
		}
	}
	accepting := make(chan struct{})
	go func() {
		defer close(accepting)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go serve(c)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-accepting
		conns.Wait()
	})
	return ln.Addr().String()
}

// A dead peer must fail every in-flight Pending with one transport error
// once the WithTimeout deadline fires — not hang them forever, not fail
// them piecemeal with different errors.
func TestTimeoutFailsAllInFlight(t *testing.T) {
	addr, stop := hangingServer(t)
	defer stop()
	c, err := DialConn(addr, WithTimeout(100*time.Millisecond), WithWindow(8))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var pendings []*Pending
	for i := 0; i < 5; i++ {
		pendings = append(pendings, c.Go([]wire.Request{{Op: wire.OpGet, Key: []byte{byte('a' + i)}}}))
	}
	deadline := time.Now().Add(5 * time.Second)
	var first error
	for i, p := range pendings {
		if time.Now().After(deadline) {
			t.Fatal("pendings did not fail within 5s")
		}
		resps, err := p.Wait()
		if err == nil {
			t.Fatalf("pending %d: got %d responses from a hanging server", i, len(resps))
		}
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("pending %d: error %v, want deadline exceeded", i, err)
		}
		if first == nil {
			first = err
		} else if err != first {
			t.Fatalf("pending %d failed with %v, others with %v — want one shared error", i, err, first)
		}
		p.Release()
	}
	// The connection is sticky-failed: later Gos fail immediately.
	p := c.Go([]wire.Request{{Op: wire.OpStats}})
	if _, err := p.Wait(); err == nil {
		t.Fatal("Go after transport failure succeeded")
	}
	p.Release()
}

// WaitCtx must return promptly when its context fires, transfer the
// abandoned Pending back to the connection, and leave the connection usable
// for the batches that eventually complete.
func TestWaitCtxAbandon(t *testing.T) {
	addr, stop := hangingServer(t)
	defer stop()
	// No WithTimeout: the batch genuinely never completes until Close.
	c, err := DialConn(addr, WithWindow(4))
	if err != nil {
		t.Fatal(err)
	}

	p := c.Go([]wire.Request{{Op: wire.OpGet, Key: []byte("k")}})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	resps, werr := p.WaitCtx(ctx)
	if werr == nil || !errors.Is(werr, context.DeadlineExceeded) {
		t.Fatalf("WaitCtx = (%v, %v), want deadline exceeded", resps, werr)
	}
	if time.Since(start) > time.Second {
		t.Fatal("WaitCtx did not return promptly")
	}
	// p is abandoned: the connection owns it now. Closing fails the batch,
	// and the completer-side recycle must not double-signal or panic.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// WaitCtx with a context that never fires behaves exactly like Wait.
func TestWaitCtxCompletes(t *testing.T) {
	addr, stop := hangingServer(t)
	defer stop()
	c, err := DialConn(addr, WithTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := c.Go([]wire.Request{{Op: wire.OpGet, Key: []byte("k")}})
	if _, err := p.WaitCtx(context.Background()); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("WaitCtx error = %v, want deadline exceeded", err)
	}
	p.Release()
}

// An idle connection with a timeout configured must not spuriously fail:
// the rolling read deadline is cleared when the window empties.
func TestTimeoutIdleConnectionSurvives(t *testing.T) {
	// A live server answers the first batch; the connection then sits idle
	// for several timeout periods and must still be healthy.
	addr := statusServer(t, wire.StatusOK)
	c, err := DialConn(addr, WithTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // 4x the timeout, idle
	if _, err := c.Stats(); err != nil {
		t.Fatalf("idle connection failed: %v", err)
	}
}

// A refused range query is an error, not an empty range: a StatusError
// reply to GetRange must not read as "no keys there".
func TestGetRangeReportsRefusal(t *testing.T) {
	addr := statusServer(t, wire.StatusError)
	c, err := DialConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if pairs, err := c.GetRange([]byte("k"), 10, nil); err == nil || !strings.Contains(err.Error(), "status 2") {
		t.Fatalf("GetRange against a refusing server: %d pairs, err %v; want an error naming status 2", len(pairs), err)
	}
}

// A count or key length the wire format cannot carry is refused where the
// request is built: nothing is sent, the batch fails alone with an error
// naming the limit, and the connection carries the next request.
func TestOversizedCountsRefusedBeforeSending(t *testing.T) {
	addr := statusServer(t, wire.StatusError)
	c, err := DialConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, refused := range []struct {
		req   wire.Request
		limit string
	}{
		{wire.Request{Op: wire.OpGetRange, Key: []byte("k"), N: wire.MaxRangeN + 1}, "65535"},
		{wire.Request{Op: wire.OpGet, Key: []byte("k"), Cols: make([]int, wire.MaxColList+1)}, "255"},
		{wire.Request{Op: wire.OpGet, Key: make([]byte, wire.MaxKeyLen+1)}, "65535"},
	} {
		if _, err := c.Do([]wire.Request{{Op: wire.OpGet, Key: []byte("k")}, refused.req}); err == nil || !strings.Contains(err.Error(), refused.limit) {
			t.Fatalf("op %d with a %d-byte key, %d columns, N %d: err %v, want one naming %s",
				refused.req.Op, len(refused.req.Key), len(refused.req.Cols), refused.req.N, err, refused.limit)
		}
	}
	atLimits := []wire.Request{{Op: wire.OpGetRange, Key: make([]byte, wire.MaxKeyLen), N: wire.MaxRangeN, Cols: make([]int, wire.MaxColList)}}
	if resps, err := c.Do(atLimits); err != nil || len(resps) != 1 {
		t.Fatalf("a request at every limit after three refusals: %d responses, %v", len(resps), err)
	}
}
