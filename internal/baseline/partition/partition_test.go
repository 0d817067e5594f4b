package partition

import (
	"fmt"
	"testing"

	"repro/internal/baseline/conformance"
	"repro/internal/value"
)

// get and put route one operation by key hash, as Figure 11's clients do.
func get(s *Store, key []byte) (*value.Value, bool) {
	r := s.Do(s.PartitionFor(key), []Op{{Kind: OpGet, Key: key}})
	return r[0].Value, r[0].OK
}

func put(s *Store, key []byte, v *value.Value) bool {
	r := s.Do(s.PartitionFor(key), []Op{{Kind: OpPut, Key: key, Value: v}})
	return r[0].OK
}

// storeLen sums the partition sizes. Each executor first drains its queue
// up to an empty batch, so the sum is exact once the clients have returned.
func storeLen(s *Store) int {
	n := 0
	for _, p := range s.parts {
		done := make(chan struct{})
		p.ch <- batchReq{done: done}
		<-done
		n += p.tree.Len()
	}
	return n
}

// routed is a Store whose every operation takes the client route.
type routed struct{ *Store }

func (s routed) Get(key []byte) (*value.Value, bool) { return get(s.Store, key) }
func (s routed) Put(key []byte, v *value.Value) bool { return put(s.Store, key, v) }
func (s routed) Len() int                            { return storeLen(s.Store) }

// mk makes a four-partition store that t closes.
func mk(t *testing.T) func() conformance.Store {
	return func() conformance.Store {
		s := New(4, 16)
		t.Cleanup(s.Close)
		return routed{s}
	}
}

func TestModel(t *testing.T) { conformance.Model(t, mk(t)) }

func TestConcurrentClients(t *testing.T) { conformance.Concurrent(t, mk(t)) }

func TestBatches(t *testing.T) {
	s := New(2, 4)
	defer s.Close()
	ops := make([]Op, 100)
	for i := range ops {
		k := []byte(fmt.Sprintf("b%03d", i))
		ops[i] = Op{Kind: OpPut, Key: k, Value: value.New(k)}
	}
	s.Do(0, ops)
	gets := make([]Op, 100)
	for i := range gets {
		gets[i] = Op{Kind: OpGet, Key: []byte(fmt.Sprintf("b%03d", i))}
	}
	res := s.Do(0, gets)
	for i, r := range res {
		if !r.OK || string(r.Value.Col(0)) != fmt.Sprintf("b%03d", i) {
			t.Fatalf("batch get %d failed", i)
		}
	}
	// Partition 1 never saw these keys.
	res = s.Do(1, gets[:1])
	if res[0].OK {
		t.Fatal("key leaked across partitions")
	}
}

func TestPartitionForStable(t *testing.T) {
	s := New(8, 4)
	defer s.Close()
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("k%d", i))
		p1 := s.PartitionFor(k)
		p2 := s.PartitionFor(k)
		if p1 != p2 || p1 < 0 || p1 >= 8 {
			t.Fatalf("unstable partition for %q: %d vs %d", k, p1, p2)
		}
	}
}
