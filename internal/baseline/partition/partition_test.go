package partition

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/value"
)

// get and put route one operation by key hash, as Figure 11's clients do.
func get(s *Store, key []byte) (*value.Value, bool) {
	r := s.Do(s.PartitionFor(key), []Op{{Kind: OpGet, Key: key}})
	return r[0].Value, r[0].OK
}

func put(s *Store, key []byte, v *value.Value) {
	s.Do(s.PartitionFor(key), []Op{{Kind: OpPut, Key: key, Value: v}})
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

func TestBasicRouting(t *testing.T) {
	s := New(4, 8)
	defer s.Close()
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("key%04d", i))
		put(s, k, value.New(k))
	}
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("key%04d", i))
		v, ok := get(s, k)
		if !ok || string(v.Bytes()) != string(k) {
			t.Fatalf("lost %q", k)
		}
	}
	if n := storeLen(s); n != 1000 {
		t.Fatalf("len %d", n)
	}
}

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
		if !r.OK || string(r.Value.Bytes()) != fmt.Sprintf("b%03d", i) {
			t.Fatalf("batch get %d failed", i)
		}
	}
	// Partition 1 never saw these keys.
	res = s.Do(1, gets[:1])
	if res[0].OK {
		t.Fatal("key leaked across partitions")
	}
}

func TestConcurrentClients(t *testing.T) {
	s := New(4, 16)
	defer s.Close()
	var wg sync.WaitGroup
	const clients, per = 8, 500
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := []byte(fmt.Sprintf("c%d-%04d", c, i))
				put(s, k, value.New(k))
			}
			for i := 0; i < per; i++ {
				k := []byte(fmt.Sprintf("c%d-%04d", c, i))
				if v, ok := get(s, k); !ok || string(v.Bytes()) != string(k) {
					t.Errorf("lost %q", k)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if n := storeLen(s); n != clients*per {
		t.Fatalf("len %d want %d", n, clients*per)
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
