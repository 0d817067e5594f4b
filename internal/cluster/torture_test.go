package cluster

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/netfault"
	"repro/internal/server"
)

// The partition-torture harness: three live servers, each behind its own
// netfault proxy, a cluster client dialing the proxies, and a crew of
// workers hammering disjoint key ranges while the test schedules network
// faults against individual nodes. Invariants checked continuously and at
// the end:
//
//   - No acked write is ever lost: a key whose writes all acked must read
//     back exactly the last acked sequence number; a key that ever holds an
//     acked write must never read as absent (stores survive faults and
//     process rebirth).
//   - No reply is ever served by the wrong shard: reads
//     never observe a sequence number that was never written, and at the
//     end every key is resident on exactly its ring owner.
//   - Operations against a dead shard fail within one op timeout, and once
//     the breaker trips they fail fast — the goroutine count stays bounded
//     through the outage instead of growing one parked goroutine per op.
//   - A healed (or killed-and-reborn) node rejoins and serves without the
//     client being restarted.

// tortureWorker owns a disjoint set of keys (single writer per key) and
// tracks, per key, the last acked sequence number, the highest sequence
// ever attempted, and whether any write outcome is unknown (a put error
// taints the key: the write may or may not have landed, and a stale retry
// from a severed connection could even apply late, so only the relaxed
// invariants hold afterwards).
type tortureWorker struct {
	t    *testing.T
	cl   *Cluster
	id   int
	keys [][]byte

	acked   []uint64
	maxSeq  []uint64
	tainted []bool

	putErrs atomic.Uint64
	getErrs atomic.Uint64
}

func (w *tortureWorker) run(stop <-chan struct{}) {
	rng := rand.New(rand.NewSource(int64(w.id)*7919 + 1))
	for {
		select {
		case <-stop:
			return
		default:
		}
		ki := rng.Intn(len(w.keys))
		switch op := rng.Intn(10); {
		case op < 5: // put
			seq := w.maxSeq[ki] + 1
			w.maxSeq[ki] = seq
			if _, err := w.cl.PutSimple(w.keys[ki], seqVal(seq)); err != nil {
				w.tainted[ki] = true
				w.putErrs.Add(1)
			} else {
				w.acked[ki] = seq
			}
		case op < 9: // get
			w.get(ki)
		default: // three neighbouring keys, one Get each; they may sit on different shards
			for _, i := range []int{ki, (ki + 1) % len(w.keys), (ki + 2) % len(w.keys)} {
				w.get(i)
			}
		}
	}
}

// get reads key ki and checks the answer against the write history; a
// transport error only counts.
func (w *tortureWorker) get(ki int) {
	vals, _, ok, err := w.cl.Get(w.keys[ki], nil)
	if err != nil {
		w.getErrs.Add(1)
		return
	}
	var v []byte
	if ok {
		v = vals[0]
	}
	w.check(ki, ok, v)
}

// check validates one read result against the worker's write history.
func (w *tortureWorker) check(ki int, ok bool, val []byte) {
	key := w.keys[ki]
	if !ok {
		if w.acked[ki] > 0 {
			w.t.Errorf("worker %d key %q: ACKED WRITE LOST — seq %d was acked but the key reads absent",
				w.id, key, w.acked[ki])
		}
		return
	}
	seq, err := strconv.ParseUint(string(val), 10, 64)
	if err != nil {
		w.t.Errorf("worker %d key %q: garbage value %q", w.id, key, val)
		return
	}
	if seq > w.maxSeq[ki] {
		w.t.Errorf("worker %d key %q: read seq %d which was never written (max %d) — wrong-shard or foreign reply",
			w.id, key, seq, w.maxSeq[ki])
	}
	if !w.tainted[ki] && w.acked[ki] > 0 && seq != w.acked[ki] {
		w.t.Errorf("worker %d key %q: ACKED WRITE LOST — read seq %d, last acked %d (no write ever errored on this key)",
			w.id, key, seq, w.acked[ki])
	}
}

func seqVal(seq uint64) []byte { return []byte(strconv.FormatUint(seq, 10)) }

// torture wires nodes, proxies, cluster, workers, and a goroutine sampler
// into one harness the fault schedules drive.
type torture struct {
	t       *testing.T
	nodes   []testNode
	proxies []*netfault.Proxy
	cl      *Cluster
	tm      timing
	workers []*tortureWorker

	stopCh   chan struct{}
	wg       sync.WaitGroup
	baseline int
	maxG     atomic.Int64
	sampStop chan struct{}
	sampDone chan struct{}
}

func newTorture(t *testing.T, nWorkers, keysPer int) *torture {
	nodes := startNodes(t, 3)
	proxies, addrs := proxied(t, nodes)
	tm := fastTiming()
	tm.op = 250 * time.Millisecond
	tm.dial = 150 * time.Millisecond
	tm.downFor = 50 * time.Millisecond
	tor := &torture{
		t: t, nodes: nodes, proxies: proxies, tm: tm,
		cl:     newCluster(t, addrs, tm),
		stopCh: make(chan struct{}), sampStop: make(chan struct{}), sampDone: make(chan struct{}),
	}
	for wid := 0; wid < nWorkers; wid++ {
		keys := make([][]byte, keysPer)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("t%02d-%02d", wid, i))
		}
		tor.workers = append(tor.workers, &tortureWorker{
			t: t, cl: tor.cl, id: wid, keys: keys,
			acked: make([]uint64, keysPer), maxSeq: make([]uint64, keysPer),
			tainted: make([]bool, keysPer),
		})
	}
	return tor
}

// start warms one connection per node, snapshots the goroutine baseline,
// then launches the workers and the goroutine sampler.
func (tor *torture) start() {
	for v := range tor.nodes {
		if _, _, _, err := tor.cl.Get(tor.keyOwnedBy(v), nil); err != nil {
			tor.fatalf("warm-up read against node %d: %v", v, err)
		}
	}
	tor.baseline = runtime.NumGoroutine()
	go func() {
		defer close(tor.sampDone)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tor.sampStop:
				return
			case <-tick.C:
				if g := int64(runtime.NumGoroutine()); g > tor.maxG.Load() {
					tor.maxG.Store(g)
				}
			}
		}
	}()
	for _, w := range tor.workers {
		tor.wg.Add(1)
		go func(w *tortureWorker) {
			defer tor.wg.Done()
			w.run(tor.stopCh)
		}(w)
	}
}

// run lets the workload proceed under whatever faults are active.
func (tor *torture) run(d time.Duration) { time.Sleep(d) }

// fatalf fails the harness, dumping the cluster's flight recorder first:
// the node-health timeline (every trip, probe, and recovery with
// timestamps) is exactly the context a "never tripped" / "never healed"
// failure needs, and it is unrecoverable after the process exits.
func (tor *torture) fatalf(format string, args ...any) {
	tor.t.Helper()
	tor.t.Logf("cluster flight recorder at failure:\n%s", tor.cl.Recorder().DumpString())
	tor.t.Fatalf(format, args...)
}

func (tor *torture) keyOwnedBy(v int) []byte {
	for i := 0; ; i++ {
		k := []byte(fmt.Sprintf("own-%d-%d", v, i))
		if tor.cl.Owner(k) == v {
			return k
		}
	}
}

// waitTripped waits for node v's breaker to have tripped at least once
// since the given count (trips is monotonic, so this does not race the
// Down→Probing flicker).
func (tor *torture) waitTripped(v int, since uint64) {
	deadline := time.Now().Add(10 * time.Second)
	for tor.cl.ClusterStats().Nodes[v].Trips <= since {
		if time.Now().After(deadline) {
			tor.fatalf("node %d never tripped", v)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (tor *torture) waitUp(v int) {
	deadline := time.Now().Add(10 * time.Second)
	for tor.cl.ClusterStats().Nodes[v].State != breaker.Closed {
		if time.Now().After(deadline) {
			tor.fatalf("node %d never returned to Up", v)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// assertFailFast checks a dead-shard op spends at most one op timeout — and
// once tripped it should not even spend that (no dial, no deadline wait).
func (tor *torture) assertFailFast(v int) {
	key := tor.keyOwnedBy(v)
	start := time.Now()
	if _, _, _, err := tor.cl.Get(key, nil); err == nil {
		tor.t.Errorf("read against dead node %d succeeded", v)
	}
	if el := time.Since(start); el > tor.tm.op {
		tor.t.Errorf("dead-shard op took %v, over the op timeout budget %v — not failing fast", el, tor.tm.op)
	}
}

// rebirth kills node v's server process and brings a new incarnation up on
// a fresh listener over the same store, behind the same proxy identity —
// the client keeps dialing the address it always knew.
func (tor *torture) rebirth(v int) {
	tor.nodes[v].srv.Close()
	srv := server.New(tor.nodes[v].store, 2)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		tor.fatalf("rebirth node %d: %v", v, err)
	}
	tor.t.Cleanup(func() { srv.Close() })
	tor.nodes[v].srv = srv
	tor.proxies[v].SetTarget(srv.Addr().String())
	tor.proxies[v].KillConns() // sever flows pinned to the dead incarnation
}

// finish stops the workload, checks the goroutine ceiling held through the
// faults, waits for every node to be Up, then runs the final verification:
// a fresh acked write+read per key (the healed cluster serves every shard
// with zero client restarts) and the residency sweep (every key on exactly
// its ring owner — no write was ever taken by the wrong shard).
func (tor *torture) finish() {
	t := tor.t
	close(tor.stopCh)
	tor.wg.Wait()
	close(tor.sampStop)
	<-tor.sampDone

	// Bounded goroutines through every outage: fail-fast means failed ops
	// park nothing. One goroutine per failed op would blow through this
	// ceiling within a single Down window.
	ceiling := int64(tor.baseline + 10*len(tor.workers) + 120)
	if max := tor.maxG.Load(); max > ceiling {
		t.Errorf("goroutines peaked at %d (baseline %d, ceiling %d): outages are leaking or parking goroutines",
			max, tor.baseline, ceiling)
	}

	for v := range tor.nodes {
		tor.waitUp(v)
	}
	// Quiet period: any request still buffered on a severed connection
	// drains or dies before the strict final pass.
	time.Sleep(2 * tor.tm.op)

	for _, w := range tor.workers {
		for ki, key := range w.keys {
			seq := w.maxSeq[ki] + 1
			var err error
			for attempt := 0; attempt < 8; attempt++ {
				if _, err = tor.cl.PutSimple(key, seqVal(seq)); err == nil {
					break
				}
				time.Sleep(100 * time.Millisecond) // stale conn or probing node; retry
			}
			if err != nil {
				t.Errorf("healed cluster refused write to %q: %v", key, err)
				continue
			}
			vals, _, ok, gerr := tor.cl.Get(key, nil)
			if gerr != nil || !ok {
				t.Errorf("healed cluster lost just-acked %q: ok=%v err=%v", key, ok, gerr)
				continue
			}
			if got := string(vals[0]); got != string(seqVal(seq)) {
				t.Errorf("key %q: read %q after acking seq %d", key, got, seq)
			}
		}
	}

	for _, w := range tor.workers {
		for _, key := range w.keys {
			owner := tor.cl.Owner(key)
			for ni := range tor.nodes {
				sess := tor.nodes[ni].store.Session(0)
				_, resident := sess.GetValue(key)
				if resident != (ni == owner) {
					t.Errorf("key %q: resident=%v on node %d, ring owner is %d — shard ownership violated",
						key, resident, ni, owner)
				}
			}
		}
	}

	// The workload machinery itself must wind down: lingering growth here
	// means op goroutines outlived their operations.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= tor.baseline+60 {
			break
		} else if time.Now().After(deadline) {
			t.Errorf("goroutines never settled: %d now vs baseline %d", g, tor.baseline)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestPartitionTorture is the base schedule: partition node 0, slow node 1,
// reset node 2, then kill node 0's process and rebirth it behind the same
// network identity — all under live load, with the full invariant sweep at
// the end. Runs in CI under -race; the exhaustive every-victim-every-fault
// schedule lives behind -tags slowtest.
func TestPartitionTorture(t *testing.T) {
	tor := newTorture(t, 6, 6)
	tor.start()
	tor.run(300 * time.Millisecond) // clean baseline

	// Partition: node 0 goes dark mid-flight (established flows freeze,
	// new dials hang until the dial timeout).
	trips0 := tor.cl.ClusterStats().Nodes[0].Trips
	tor.proxies[0].Blackhole()
	tor.waitTripped(0, trips0)
	tor.assertFailFast(0)
	tor.run(300 * time.Millisecond)
	tor.proxies[0].Heal()
	tor.waitUp(0)
	tor.run(200 * time.Millisecond)

	// Slow node: latency below the op timeout must degrade, not trip.
	tor.proxies[1].SetLatency(20 * time.Millisecond)
	tor.run(300 * time.Millisecond)
	tor.proxies[1].Heal()

	// Dead process, live kernel: connections reset on arrival.
	trips2 := tor.cl.ClusterStats().Nodes[2].Trips
	tor.proxies[2].Refuse()
	tor.waitTripped(2, trips2)
	tor.assertFailFast(2)
	tor.run(200 * time.Millisecond)
	tor.proxies[2].Heal()
	tor.waitUp(2)

	// Kill and rebirth node 0 on a fresh listener, same store, same proxy
	// identity — the client must resume against it without a restart.
	tor.rebirth(0)
	tor.run(300 * time.Millisecond)

	tor.finish()

	st := tor.cl.ClusterStats()
	if st.Nodes[0].Trips == 0 || st.Nodes[2].Trips == 0 {
		t.Errorf("victims never tripped: node0=%d node2=%d", st.Nodes[0].Trips, st.Nodes[2].Trips)
	}
	var puts, gets uint64
	for _, w := range tor.workers {
		puts += w.putErrs.Load()
		gets += w.getErrs.Load()
	}
	t.Logf("torture stats: trips=[%d %d %d] put_errs=%d get_errs=%d peak_goroutines=%d (baseline %d)",
		st.Nodes[0].Trips, st.Nodes[1].Trips, st.Nodes[2].Trips, puts, gets, tor.maxG.Load(), tor.baseline)
}
