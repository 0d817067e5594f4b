package server

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/value"
	"repro/internal/wire"
)

func dialConn(t *testing.T, addr string, opts ...client.ConnOption) *client.Conn {
	t.Helper()
	c, err := client.DialConn(addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestConnEndToEnd(t *testing.T) {
	_, addr := startServer(t, "")
	c := dialConn(t, addr)

	v1, err := c.PutSimple([]byte("hello"), []byte("world"))
	if err != nil || v1 == 0 {
		t.Fatalf("put: %d %v", v1, err)
	}
	got, ver, ok, err := c.Get([]byte("hello"), nil)
	if err != nil || !ok || string(got[0]) != "world" {
		t.Fatalf("get: %q %v %v", got, ok, err)
	}
	if ver != v1 {
		t.Fatalf("get version %d, put returned %d", ver, v1)
	}
	if _, _, ok, _ := c.Get([]byte("missing"), nil); ok {
		t.Fatal("phantom key")
	}

	// CAS through the async client: success, then conflict.
	v2, ok, err := c.CasPut([]byte("hello"), v1, []wire.ColData{{Col: 0, Data: []byte("world2")}})
	if err != nil || !ok || v2 <= v1 {
		t.Fatalf("cas: %d %v %v", v2, ok, err)
	}
	cur, ok, err := c.CasPut([]byte("hello"), v1, []wire.ColData{{Col: 0, Data: []byte("stale")}})
	if err != nil || ok || cur != v2 {
		t.Fatalf("stale cas: ver=%d ok=%v err=%v want ver=%d", cur, ok, err, v2)
	}
	if got, _, _, _ := c.Get([]byte("hello"), nil); string(got[0]) != "world2" {
		t.Fatalf("stale cas mutated value: %q", got)
	}

	// Range + stats + remove round out the wrapper surface.
	pairs, err := c.GetRange([]byte("h"), 10, nil)
	if err != nil || len(pairs) != 1 || string(pairs[0].Key) != "hello" {
		t.Fatalf("getrange: %v %v", pairs, err)
	}
	stats, err := c.Stats()
	if err != nil || stats["keys"] != 1 {
		t.Fatalf("stats: %v %v", stats, err)
	}
	existed, err := c.Remove([]byte("hello"))
	if err != nil || !existed {
		t.Fatalf("remove: %v %v", existed, err)
	}
}

// Many goroutines share one Conn, each pipelining its own keys; tag
// matching must route every response to its issuer.
func TestConnConcurrent(t *testing.T) {
	_, addr := startServer(t, "")
	c := dialConn(t, addr, client.WithWindow(8))

	const goroutines = 8
	const rounds = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := []byte(fmt.Sprintf("g%02d-key%03d", g, i))
				val := []byte(fmt.Sprintf("g%02d-val%03d", g, i))
				if _, err := c.PutSimple(key, val); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				got, _, ok, err := c.Get(key, nil)
				if err != nil || !ok || string(got[0]) != string(val) {
					t.Errorf("get %q: %q %v %v", key, got, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// A Go that outlives several others must still find its response: issue a
// window's worth of batches, wait for them out of order.
func TestConnOutOfOrderWait(t *testing.T) {
	_, addr := startServer(t, "")
	c := dialConn(t, addr, client.WithWindow(8))

	var pendings []*client.Pending
	for i := 0; i < 8; i++ {
		pendings = append(pendings, c.Go([]wire.Request{
			{Op: wire.OpPut, Key: []byte(fmt.Sprintf("k%d", i)),
				Puts: []wire.ColData{{Col: 0, Data: []byte(fmt.Sprintf("v%d", i))}}},
		}))
	}
	// Wait newest-first: responses arrived tag-ordered, Wait order must not
	// matter.
	for i := len(pendings) - 1; i >= 0; i-- {
		resps, err := pendings[i].Wait()
		if err != nil || len(resps) != 1 || resps[0].Status != wire.StatusOK {
			t.Fatalf("pending %d: %v %v", i, resps, err)
		}
		pendings[i].Release()
	}
	for i := 0; i < 8; i++ {
		got, _, ok, _ := c.Get([]byte(fmt.Sprintf("k%d", i)), nil)
		if !ok || string(got[0]) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d: %q %v", i, got, ok)
		}
	}
}

// A malformed request (unknown opcode) inside a decodable frame must fail
// alone with StatusError — the rest of the batch executes, the connection
// survives, and the errored_requests stat counts it. The decoder cannot
// re-sync past an unknown opcode's unknown payload, so everything from the
// first bad request onward is errored.
func TestMalformedRequestSurvivesV2(t *testing.T) {
	_, addr := startServer(t, "")
	c := dialConn(t, addr)

	// Request 1 of 3 is an unknown opcode: the encoder emits op+key with no
	// payload, exactly what a newer client speaking an op this server does
	// not know would send.
	reqs := []wire.Request{
		{Op: wire.OpPut, Key: []byte("good"), Puts: []wire.ColData{{Col: 0, Data: []byte("v")}}},
		{Op: wire.OpCode(99), Key: []byte("bad")},
		{Op: wire.OpGet, Key: []byte("good")},
	}
	resps, err := c.Do(reqs)
	if err != nil {
		t.Fatalf("connection died on malformed request: %v", err)
	}
	if len(resps) != 3 {
		t.Fatalf("got %d responses, want 3", len(resps))
	}
	if resps[0].Status != wire.StatusOK {
		t.Fatalf("good put errored: status %d", resps[0].Status)
	}
	if resps[1].Status != wire.StatusError || resps[2].Status != wire.StatusError {
		t.Fatalf("undecodable tail statuses %d,%d want %d,%d",
			resps[1].Status, resps[2].Status, wire.StatusError, wire.StatusError)
	}

	// The connection survives: the next (well-formed) batch works.
	resps, err = c.Do([]wire.Request{{Op: wire.OpGet, Key: []byte("good")}})
	if err != nil || resps[0].Status != wire.StatusOK || string(resps[0].Cols[0]) != "v" {
		t.Fatalf("connection unusable after malformed request: %v %+v", err, resps)
	}

	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["errored_requests"] != 2 {
		t.Fatalf("errored_requests = %d, want 2", stats["errored_requests"])
	}
}

// CAS linearizability across the network: goroutines on separate
// connections CAS-increment one key; no update may be lost. Run under
// -race in CI.
func TestCasIncrementOverNetwork(t *testing.T) {
	_, addr := startServer(t, "")
	seed := dialConn(t, addr)
	if _, ok, err := seed.CasPut([]byte("ctr"), 0, []wire.ColData{{Col: 0, Data: []byte("0")}}); !ok || err != nil {
		t.Fatalf("seed: %v %v", ok, err)
	}

	const goroutines = 4
	const increments = 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.DialConn(addr)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			for i := 0; i < increments; i++ {
				for {
					cols, ver, ok, err := c.Get([]byte("ctr"), nil)
					if err != nil || !ok {
						t.Errorf("get: %v %v", ok, err)
						return
					}
					var n int
					fmt.Sscanf(string(cols[0]), "%d", &n)
					_, ok, err = c.CasPut([]byte("ctr"), ver,
						[]wire.ColData{{Col: 0, Data: []byte(fmt.Sprint(n + 1))}})
					if err != nil {
						t.Errorf("cas: %v", err)
						return
					}
					if ok {
						break
					}
				}
			}
		}()
	}
	wg.Wait()

	cols, _, _, err := seed.Get([]byte("ctr"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprint(goroutines * increments); string(cols[0]) != want {
		t.Fatalf("lost updates: counter %q want %q", cols[0], want)
	}
}

// TestScanRunAnsweredInOrder sends one v2 frame in which three scans form a
// run between a get and a put, and a fourth follows the put alone. Each
// response must sit at its request's index and encode to the very bytes the
// same request gets when sent in a frame of its own — the put aside, whose
// version moves on — and the scan after the put must see what it wrote.
func TestScanRunAnsweredInOrder(t *testing.T) {
	srv, addr := startServer(t, "")
	c := dialConn(t, addr)
	for i := 0; i < 60; i++ {
		k := []byte(fmt.Sprintf("sr%02d", i))
		if _, err := c.Put(k, []wire.ColData{{Col: 0, Data: append([]byte("v-"), k...)}, {Col: 1, Data: []byte("c1")}}); err != nil {
			t.Fatal(err)
		}
	}
	frame := []wire.Request{
		{Op: wire.OpGet, Key: []byte("sr05")},
		{Op: wire.OpGetRange, Key: []byte("sr10"), N: 20},
		{Op: wire.OpGetRange, Key: []byte("sr3"), N: 3, Cols: []int{1}},
		{Op: wire.OpGetRange, Key: []byte("zz"), N: 5},
		{Op: wire.OpPut, Key: []byte("sr11"), Puts: []wire.ColData{{Col: 0, Data: []byte("rewritten")}}},
		{Op: wire.OpGetRange, Key: []byte("sr10"), N: 2},
	}
	const put = 4
	do := func(reqs []wire.Request) []wire.Response {
		t.Helper()
		resps, err := c.Do(reqs)
		if err != nil || len(resps) != len(reqs) {
			t.Fatalf("%d requests: %d responses, %v", len(reqs), len(resps), err)
		}
		return resps
	}
	// Singly: what precedes the put before the frame is sent, the rest after.
	alone := make([]wire.Response, len(frame))
	for i := 0; i < put; i++ {
		alone[i] = do(frame[i : i+1])[0]
	}
	together := do(frame)
	for i := put; i < len(frame); i++ {
		alone[i] = do(frame[i : i+1])[0]
	}
	if n := srv.batchedScans.Load(); n != 3 {
		t.Fatalf("batched_scans = %d after a frame with a run of three scans and a single, want 3", n)
	}
	if got := together[5].Pairs; len(got) != 2 || string(got[1].Key) != "sr11" || string(got[1].Cols[0]) != "rewritten" {
		t.Fatalf("scan after the put: %q", got)
	}
	for i := range frame {
		if i == put {
			if alone[i].Status != wire.StatusOK || together[i].Status != wire.StatusOK || alone[i].Version <= together[i].Version {
				t.Fatalf("put: together %+v, alone %+v", together[i], alone[i])
			}
			continue
		}
		a, errA := wire.AppendTaggedResponses(nil, 0, []wire.Response{together[i]})
		b, errB := wire.AppendTaggedResponses(nil, 0, []wire.Response{alone[i]})
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("request %d (%q): in the frame %+v, alone %+v", i, frame[i].Key, together[i], alone[i])
		}
	}
}

// The async client's steady state is allocation-pinned: a Go/Wait/Release
// cycle reuses the connection's encode buffer, a recycled Pending, and its
// decode scratch. The measurement covers the whole process — the client and
// the server's connection goroutine, each reading a frame header per round
// trip — so zero pins a v2 get round trip on both sides.
func TestConnSteadyStateAllocs(t *testing.T) {
	_, addr := startServer(t, "")
	c := dialConn(t, addr)

	const batch = 40 // two full groups of the batched get's wave and a part of one
	const scans = 16 // and a run of scans behind a wave of their own
	reqs := make([]wire.Request, batch, batch+scans)
	for i := range reqs {
		key := []byte(fmt.Sprintf("alloc-key-%04d", i))
		if _, err := c.PutSimple(key, []byte("alloc-test-value")); err != nil {
			t.Fatal(err)
		}
		reqs[i] = wire.Request{Op: wire.OpGet, Key: key}
	}
	for i := 0; i < scans; i++ {
		reqs = append(reqs, wire.Request{Op: wire.OpGetRange, Key: reqs[i].Key, N: 10})
	}
	roundTrip := func() {
		p := c.Go(reqs)
		resps, err := p.Wait()
		if err != nil || len(resps) != len(reqs) || resps[0].Status != wire.StatusOK || len(resps[batch].Pairs) != 10 {
			t.Fatalf("round trip: %v (%d resps)", err, len(resps))
		}
		p.Release()
	}
	for i := 0; i < 50; i++ {
		roundTrip() // warm every buffer, map bucket, and goroutine stack
	}
	allocs := testing.AllocsPerRun(300, roundTrip)
	if allocs != 0 {
		t.Fatalf("steady-state Go/Wait/Release allocates %.1f per round trip, want 0", allocs)
	}

	// The same frame with a mixed segment behind it, sixteen requests with
	// every other one a put: the packed values are all that is allocated, by
	// either side.
	const mixed = 16
	data := []wire.ColData{{Col: 0, Data: []byte("alloc-test-value")}}
	for i := 0; i < mixed; i++ {
		r := wire.Request{Op: wire.OpGet, Key: reqs[i/2].Key}
		if i%2 == 0 {
			r = wire.Request{Op: wire.OpPut, Key: reqs[i/2].Key, Puts: data}
		}
		reqs = append(reqs, r)
	}
	for i := 0; i < 50; i++ {
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(300, roundTrip); allocs != mixed/2 {
		t.Fatalf("a frame with %d puts in a mixed segment allocates %.1f per round trip, want %d (one packed value per put)", mixed/2, allocs, mixed/2)
	}
}

// A batch that cannot be encoded (past wire.MaxMessage) fails alone: no
// bytes reach the wire, so the Conn — and other traffic on it — stays
// usable.
func TestConnOversizedBatchFailsAlone(t *testing.T) {
	_, addr := startServer(t, "")
	c := dialConn(t, addr)

	huge := make([]byte, 64<<20+1) // one ColPut past MaxMessage
	p := c.Go([]wire.Request{{Op: wire.OpPut, Key: []byte("big"),
		Puts: []wire.ColData{{Col: 0, Data: huge}}}})
	if _, err := p.Wait(); err == nil {
		t.Fatal("oversized batch succeeded")
	}
	p.Release()

	if _, err := c.PutSimple([]byte("small"), []byte("v")); err != nil {
		t.Fatalf("connection poisoned by oversized batch: %v", err)
	}
	if got, _, ok, err := c.Get([]byte("small"), nil); err != nil || !ok || string(got[0]) != "v" {
		t.Fatalf("get after oversized batch: %q %v %v", got, ok, err)
	}
}

// TestLargestWireValueRoundTrips puts the two extremes a v2 OpPut can reach
// through a store and reads them back: the widest value (column 65 534, so
// 65 535 columns — all a response's u16 can count, which a get of every
// column has to) and the longest column (a request frame of exactly
// wire.MaxMessage). The packed value picks its field widths from the data;
// neither may be narrowed away. Column 65 535 would make one column more
// than any format counts: it is refused as a malformed request, the requests
// before it in the batch are served, and nothing of it is stored.
func TestLargestWireValueRoundTrips(t *testing.T) {
	srv, addr := startServer(t, "")
	c := dialConn(t, addr)

	const lastCol = value.MaxCol
	wide := []byte("wide-key")
	if _, err := c.Put(wide, []wire.ColData{{Col: 0, Data: []byte("first")}, {Col: lastCol, Data: []byte("last")}}); err != nil {
		t.Fatalf("put to column %d: %v", lastCol, err)
	}
	got, _, ok, err := c.Get(wide, []int{lastCol, 0, lastCol - 1})
	if err != nil || !ok || len(got) != 3 || string(got[0]) != "last" || string(got[1]) != "first" || len(got[2]) != 0 {
		t.Fatalf("get of columns %d, 0, %d: %q ok=%v err=%v", lastCol, lastCol-1, got, ok, err)
	}
	got, _, ok, err = c.Get(wide, nil)
	if err != nil || !ok || len(got) != lastCol+1 || string(got[0]) != "first" || string(got[lastCol]) != "last" {
		t.Fatalf("get of every column: %d columns, ok=%v err=%v", len(got), ok, err)
	}

	p := c.Go([]wire.Request{
		{Op: wire.OpPut, Key: []byte("before"), Puts: []wire.ColData{{Col: 0, Data: []byte("served")}}},
		{Op: wire.OpPut, Key: []byte("refused"), Puts: []wire.ColData{{Col: 0, Data: []byte("x")}, {Col: lastCol + 1, Data: []byte("y")}}},
	})
	resps, err := p.Wait()
	if err != nil || len(resps) != 2 || resps[0].Status != wire.StatusOK || resps[1].Status != wire.StatusError {
		t.Fatalf("batch with a put to column %d: %+v %v, want OK then Error", lastCol+1, resps, err)
	}
	p.Release()
	// The synchronous face reports the refusal too, not version 0 and no error.
	if ver, err := c.Put([]byte("refused"), []wire.ColData{{Col: lastCol + 1, Data: []byte("y")}}); err == nil {
		t.Fatalf("Conn.Put to column %d: version %d and no error", lastCol+1, ver)
	}
	sess := session(t, srv.store)
	if _, ok := sess.GetValue([]byte("refused")); ok {
		t.Fatalf("a put to column %d was stored", lastCol+1)
	}
	if v, ok := sess.GetValue([]byte("before")); !ok || string(v.Col(0)) != "served" {
		t.Fatal("the request before the refused one was not served")
	}

	long := []byte("long-key")
	put := []wire.Request{{Op: wire.OpPut, Key: long, Puts: []wire.ColData{{Col: 0}}}}
	frame, err := wire.AppendTaggedRequests(nil, 1, put)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, wire.MaxMessage-(len(frame)-4)) // the length word counts everything after itself
	for i := range data {
		data[i] = byte(i >> 8)
	}
	put[0].Puts[0].Data = data
	p = c.Go(put)
	resps, err = p.Wait()
	if err != nil || len(resps) != 1 || resps[0].Status != wire.StatusOK {
		t.Fatalf("put of a %d-byte column: %v %v", len(data), resps, err)
	}
	p.Release()
	got, _, ok, err = c.Get(long, nil)
	if err != nil || !ok || len(got) != 1 || !bytes.Equal(got[0], data) {
		t.Fatalf("get of a %d-byte column: %d columns, ok=%v err=%v", len(data), len(got), ok, err)
	}
}
