package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/client"
	"repro/internal/netfault"
)

// proxied wraps every test node in a netfault proxy; the cluster dials the
// proxies, so each node's network can be tortured independently.
func proxied(t *testing.T, nodes []testNode) ([]*netfault.Proxy, []string) {
	t.Helper()
	proxies := make([]*netfault.Proxy, len(nodes))
	addrs := make([]string, len(nodes))
	for i, n := range nodes {
		p, err := netfault.New(n.addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		proxies[i] = p
		addrs[i] = p.Addr()
	}
	return proxies, addrs
}

// TestDialTimeoutBlackhole pins the satellite fix: DialConn against an
// address that accepts the TCP handshake but never answers the hello (a
// blackholed proxy) must fail within the dial budget instead of hanging
// forever — without WithDialTimeout, cluster construction or a node
// reconnect would wedge on one dark address.
func TestDialTimeoutBlackhole(t *testing.T) {
	nodes := startNodes(t, 1)
	p, err := netfault.New(nodes[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Blackhole()

	start := time.Now()
	_, err = client.DialConn(p.Addr(), client.WithDialTimeout(150*time.Millisecond))
	el := time.Since(start)
	if err == nil {
		t.Fatal("DialConn succeeded against a blackhole")
	}
	if el > time.Second {
		t.Fatalf("DialConn took %v against a blackhole; the dial timeout did not cover the hello", el)
	}

	// Sanity: with the blackhole healed the same timeout dials fine.
	p.Heal()
	c, err := client.DialConn(p.Addr(), client.WithDialTimeout(150*time.Millisecond))
	if err != nil {
		t.Fatalf("post-heal dial: %v", err)
	}
	c.Close()
}

// TestNodeTripFailFastHeal walks the breaker lifecycle end to end: a
// blackholed node costs timeout-budget failures until it trips Down, after
// which operations fail fast (ErrNodeDown, microseconds not seconds); when
// the network heals, the probe loop restores the node and operations
// succeed again — all without constructing a new Cluster.
func TestNodeTripFailFastHeal(t *testing.T) {
	nodes := startNodes(t, 1)
	proxies, addrs := proxied(t, nodes)
	tm := fastTiming()
	tm.op = 300 * time.Millisecond
	tm.dial = 200 * time.Millisecond
	cl := newCluster(t, addrs, tm)

	key := []byte("k")
	if _, err := cl.PutSimple(key, []byte("v")); err != nil {
		t.Fatal(err)
	}

	proxies[0].Blackhole()
	// Ops fail with the timeout until tm.failures consecutive failures
	// trip the breaker.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, _, _, err := cl.Get(key, nil)
		if err == nil {
			t.Fatal("read succeeded through a blackhole")
		}
		if errors.Is(err, ErrNodeDown) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("node never tripped Down")
		}
	}
	if st := cl.ClusterStats(); st.Nodes[0].State == breaker.Closed {
		t.Fatalf("node state %d after trip", st.Nodes[0].State)
	}

	// Tripped: failures must now be fail-fast, nowhere near the op timeout.
	start := time.Now()
	const fastOps = 50
	for i := 0; i < fastOps; i++ {
		if _, _, _, err := cl.Get(key, nil); err == nil {
			t.Fatal("read succeeded while node down")
		}
	}
	if el := time.Since(start); el > tm.op {
		t.Fatalf("%d fail-fast ops took %v (> one op timeout %v): not failing fast",
			fastOps, el, tm.op)
	}

	// Heal the network; the probe loop must bring the node back Up and the
	// data written before the fault must still be there.
	proxies[0].Heal()
	deadline = time.Now().Add(10 * time.Second)
	for {
		vals, _, ok, err := cl.Get(key, nil)
		if err == nil {
			if !ok || string(vals[0]) != "v" {
				t.Fatalf("healed read lost data: %q %v", vals, ok)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node never healed: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := cl.ClusterStats(); st.Nodes[0].State != breaker.Closed || st.Nodes[0].Trips == 0 {
		t.Fatalf("post-heal state %d trips %d", st.Nodes[0].State, st.Nodes[0].Trips)
	}
}

// TestDownOwnerWriteStaysOnOwner pins shard ownership under an outage:
// with a key's owner down, a put for that key fails fast with ErrNodeDown,
// and the write lands on no other node — nothing retries it elsewhere.
func TestDownOwnerWriteStaysOnOwner(t *testing.T) {
	nodes := startNodes(t, 3)
	proxies, addrs := proxied(t, nodes)
	tm := fastTiming()
	tm.op = 300 * time.Millisecond
	tm.dial = 200 * time.Millisecond
	tm.downFor = time.Hour // keep the owner down for the whole test
	cl := newCluster(t, addrs, tm)

	var key []byte
	for i := 0; ; i++ {
		k := []byte(fmt.Sprintf("fo-%d", i))
		if cl.Owner(k) == 0 {
			key = k
			break
		}
	}

	proxies[0].Blackhole()
	// Drive the owner Down (the first puts burn the timeout).
	deadline := time.Now().Add(10 * time.Second)
	for cl.ClusterStats().Nodes[0].State != breaker.Open {
		cl.PutSimple(key, []byte("while-tripping"))
		if time.Now().After(deadline) {
			t.Fatal("owner never tripped")
		}
	}

	if _, err := cl.PutSimple(key, []byte("must-not-land-elsewhere")); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("put for a down owner's key: %v, want ErrNodeDown", err)
	}
	for ni := 1; ni < 3; ni++ {
		sess := nodes[ni].store.Session(0)
		_, ok := sess.GetValue(key)
		if ok {
			t.Fatalf("write leaked onto node %d", ni)
		}
	}
}
