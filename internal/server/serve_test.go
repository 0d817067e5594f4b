package server

import (
	"bufio"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/wire"
)

// dialRaw opens a connection without the client package and completes the
// hello exchange on it.
func dialRaw(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	if err := wire.WriteHello(raw, wire.Version2); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(raw)
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if v, err := wire.ReadHello(r); err != nil || v != wire.Version2 {
		t.Fatalf("hello answered with version %d, %v", v, err)
	}
	return raw, r
}

// getFrame encodes a tagged frame of one OpGet.
func getFrame(t *testing.T, tag uint32, key string) []byte {
	t.Helper()
	frame, err := wire.AppendTaggedRequests(nil, tag, []wire.Request{{Op: wire.OpGet, Key: []byte(key)}})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// readAnswer reads one response frame within timeout and checks its tag and
// that it holds one response of the given status.
func readAnswer(t *testing.T, raw net.Conn, r *bufio.Reader, timeout time.Duration, tag uint32, status uint8) {
	t.Helper()
	raw.SetReadDeadline(time.Now().Add(timeout))
	got, n, err := wire.ReadTaggedHeader(r)
	if err != nil {
		t.Fatalf("frame %d: no answer within %v: %v", tag, timeout, err)
	}
	var d wire.RespDecodeBuf
	resps, err := wire.ReadTaggedResponseBody(r, n, &d)
	if err != nil || got != tag || len(resps) != 1 || resps[0].Status != status {
		t.Fatalf("frame %d: answered with tag %d, %+v, %v", tag, got, resps, err)
	}
}

// TestResponseNotHeldBehindPartialFrame sends frame A and all but the last
// two bytes of frame B in one write, then waits for A's answer before it
// sends the rest of B, as a client may. A server that flushed only when its
// read buffer ran empty would hold A's answer while it blocked reading B, and
// the two sides would wait on each other.
func TestResponseNotHeldBehindPartialFrame(t *testing.T) {
	srv, addr := startServer(t, "")
	srv.store.Session(0).PutSimple([]byte("a"), []byte("v"))
	raw, r := dialRaw(t, addr)

	a, b := getFrame(t, 1, "a"), getFrame(t, 2, "b")
	if _, err := raw.Write(append(a, b[:len(b)-2]...)); err != nil {
		t.Fatal(err)
	}
	readAnswer(t, raw, r, 2*time.Second, 1, wire.StatusOK)
	if _, err := raw.Write(b[len(b)-2:]); err != nil {
		t.Fatal(err)
	}
	readAnswer(t, raw, r, 5*time.Second, 2, wire.StatusNotFound)
}

// settledGoroutines returns runtime.NumGoroutine once it has read the same
// for 50 ms running, failing the test if it does not settle within 5 s.
func settledGoroutines(t *testing.T) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	n, since := runtime.NumGoroutine(), time.Now()
	for time.Since(since) < 50*time.Millisecond {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine count still moving after 5 s (last %d)", n)
		}
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, since = m, time.Now()
		}
	}
	return n
}

// TestOneGoroutinePerConnection pins the server's shape: a connection is
// read, executed and answered by the one goroutine the accept loop starts
// for it, and that goroutine exits when the connection closes.
func TestOneGoroutinePerConnection(t *testing.T) {
	_, addr := startServer(t, "")
	const conns = 8
	before := settledGoroutines(t)
	raws := make([]net.Conn, conns)
	for i := range raws {
		raw, r := dialRaw(t, addr)
		if _, err := raw.Write(getFrame(t, uint32(i), "k")); err != nil {
			t.Fatal(err)
		}
		readAnswer(t, raw, r, 5*time.Second, uint32(i), wire.StatusNotFound)
		raws[i] = raw
	}
	if rise := settledGoroutines(t) - before; rise != conns {
		t.Fatalf("%d connections raised the goroutine count by %d, want %d", conns, rise, conns)
	}
	for _, raw := range raws {
		raw.Close()
	}
	if rise := settledGoroutines(t) - before; rise != 0 {
		t.Fatalf("after every connection closed the goroutine count is up %d, want 0", rise)
	}
}

// TestShutdownDrainsInFlightFrames starts Shutdown while a pipelining client
// has frames in flight: every frame already sent is executed and answered,
// and Shutdown reports a clean drain once the client closes.
func TestShutdownDrainsInFlightFrames(t *testing.T) {
	srv, addr := startServer(t, "")
	c := dialConn(t, addr, client.WithWindow(4))
	const frames, batch = 4, 256
	pending := make([]*client.Pending, frames)
	for f := range pending {
		reqs := make([]wire.Request, batch)
		for i := range reqs {
			reqs[i] = wire.Request{Op: wire.OpPut, Key: []byte{byte(f), byte(i)},
				Puts: []wire.ColData{{Col: 0, Data: []byte("v")}}}
		}
		pending[f] = c.Go(reqs)
	}
	drained := make(chan bool, 1)
	go func() { drained <- srv.Shutdown(5 * time.Second) }()
	for f, p := range pending {
		resps, err := p.Wait()
		if err != nil || len(resps) != batch {
			t.Fatalf("frame %d: %d responses, %v", f, len(resps), err)
		}
		for i := range resps {
			if resps[i].Status != wire.StatusOK {
				t.Fatalf("frame %d request %d: status %d", f, i, resps[i].Status)
			}
		}
		p.Release()
	}
	select {
	case <-drained:
		t.Fatal("Shutdown returned with a connection still open")
	default:
	}
	c.Close()
	if !<-drained {
		t.Fatal("Shutdown reported a forced close after the client closed")
	}
}

// TestShutdownClosesIdleConnection leaves an idle connection open through
// Shutdown: the drain times out, the connection is closed, and its handler
// has exited by the time Shutdown returns.
func TestShutdownClosesIdleConnection(t *testing.T) {
	srv, addr := startServer(t, "")
	raw, r := dialRaw(t, addr)
	start := time.Now()
	if srv.Shutdown(100 * time.Millisecond) {
		t.Fatal("Shutdown reported a clean drain with an idle connection open")
	}
	if waited := time.Since(start); waited < 100*time.Millisecond {
		t.Fatalf("Shutdown returned after %v, before its 100 ms budget", waited)
	}
	srv.mu.Lock()
	open := len(srv.conns)
	srv.mu.Unlock()
	if open != 0 {
		t.Fatalf("%d handlers still running when Shutdown returned", open)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := r.ReadByte(); err != io.EOF {
		t.Fatalf("read on the shut-down connection: %v, want EOF", err)
	}
}
