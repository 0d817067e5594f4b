package repro

// Benchmarks mirroring the paper's tables and figures (DESIGN.md experiment
// index). Each BenchmarkFigN/BenchmarkSecN corresponds to one table or
// figure; `cmd/masstree-bench` prints the full paper-style rows, while these
// testing.B entry points measure the same code paths under the standard Go
// benchmark harness:
//
//	go test -bench=. -benchmem .
import (
	"fmt"
	"os"
	"sync/atomic"
	"testing"

	"repro/internal/baseline/binarytree"
	"repro/internal/baseline/btree"
	"repro/internal/baseline/fourtree"
	"repro/internal/baseline/hashtable"
	"repro/internal/baseline/partition"
	"repro/internal/baseline/seqtree"
	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/value"
	"repro/internal/workload"
)

const benchKeys = 100_000

func benchKeySet(seed int64) [][]byte {
	return workload.Keys(workload.Decimal(seed), benchKeys)
}

type kvIface interface {
	Get(key []byte) (*value.Value, bool)
	Put(key []byte, v *value.Value)
}

type kvFns struct {
	get func([]byte) (*value.Value, bool)
	put func([]byte, *value.Value)
}

func (f kvFns) Get(k []byte) (*value.Value, bool) { return f.get(k) }
func (f kvFns) Put(k []byte, v *value.Value)      { f.put(k, v) }

// fig8Stores builds the Figure 8 ladder for benchmarking.
func fig8Stores() map[string]func() kvIface {
	return map[string]func() kvIface{
		"Binary": func() kvIface {
			t := binarytree.New()
			return kvFns{t.Get, func(k []byte, v *value.Value) { t.Put(k, v) }}
		},
		"Arena_IntCmp": func() kvIface {
			t := binarytree.New(binarytree.WithArena(), binarytree.WithIntCmp())
			return kvFns{t.Get, func(k []byte, v *value.Value) { t.Put(k, v) }}
		},
		"4tree": func() kvIface {
			t := fourtree.New()
			return kvFns{t.Get, func(k []byte, v *value.Value) { t.Put(k, v) }}
		},
		"Btree": func() kvIface {
			t := btree.New()
			return kvFns{t.Get, func(k []byte, v *value.Value) { t.Put(k, v) }}
		},
		"BtreePermuter": func() kvIface {
			t := btree.New(btree.WithPermuter())
			return kvFns{t.Get, func(k []byte, v *value.Value) { t.Put(k, v) }}
		},
		"Masstree": func() kvIface {
			t := core.New()
			return kvFns{t.Get, func(k []byte, v *value.Value) { t.Put(k, v) }}
		},
	}
}

// BenchmarkFig8 measures the §6.2 factor-analysis rungs: get and put on
// 1-to-10-byte decimal keys.
func BenchmarkFig8(b *testing.B) {
	keys := benchKeySet(1)
	vals := make([]*value.Value, len(keys))
	for i, k := range keys {
		vals[i] = value.New(k)
	}
	for name, mk := range fig8Stores() {
		b.Run(name+"/get", func(b *testing.B) {
			st := mk()
			for i, k := range keys {
				st.Put(k, vals[i])
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					st.Get(keys[(i*61)%len(keys)])
					i++
				}
			})
		})
		b.Run(name+"/put", func(b *testing.B) {
			st := mk()
			b.ResetTimer()
			var n atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := int(n.Add(1)) - 1
					st.Put(keys[i%len(keys)], vals[i%len(keys)])
				}
			})
		})
	}
}

// BenchmarkFig9 measures §6.4's shared-prefix key-length sweep: Masstree vs
// the +Permuter B-tree.
func BenchmarkFig9(b *testing.B) {
	for _, keyLen := range []int{8, 24, 48} {
		keys := workload.Keys(workload.Prefixed(2, keyLen), benchKeys)
		mt := core.New()
		bt := btree.New(btree.WithPermuter())
		for _, k := range keys {
			v := value.New(k)
			mt.Put(k, v)
			bt.Put(k, v)
		}
		b.Run(fmt.Sprintf("Masstree/len%d", keyLen), func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					mt.Get(keys[(i*61)%len(keys)])
					i++
				}
			})
		})
		b.Run(fmt.Sprintf("BtreePermuter/len%d", keyLen), func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					bt.Get(keys[(i*61)%len(keys)])
					i++
				}
			})
		})
	}
}

// BenchmarkFig10 measures §6.5 scalability: parallel gets and puts on the
// shared tree (per-core series comes from -cpu=1,2,...).
func BenchmarkFig10(b *testing.B) {
	keys := benchKeySet(3)
	tr := core.New()
	for _, k := range keys {
		tr.Put(k, value.New(k))
	}
	b.Run("get", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				tr.Get(keys[(i*61)%len(keys)])
				i++
			}
		})
	})
	b.Run("put", func(b *testing.B) {
		var n atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := int(n.Add(1)) - 1
				k := keys[i%len(keys)]
				tr.Put(k, value.New(k))
			}
		})
	})
}

// BenchmarkFig11 measures §6.6 skew handling: shared Masstree vs the
// hard-partitioned store at delta = 0 and delta = 9.
func BenchmarkFig11(b *testing.B) {
	const parts = 16
	keys := benchKeySet(4)
	ps := partition.New(parts, 8)
	defer ps.Close()
	mt := core.New()
	perPart := make([][][]byte, parts)
	for _, k := range keys {
		p := ps.PartitionFor(k)
		perPart[p] = append(perPart[p], k)
		v := value.New(k)
		mt.Put(k, v)
		ps.Do(p, []partition.Op{{Kind: partition.OpPut, Key: k, Value: v}})
	}
	const batch = 64
	for _, delta := range []float64{0, 9} {
		b.Run(fmt.Sprintf("Masstree/delta%.0f", delta), func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				skew := workload.NewPartitionSkew(1, parts, delta)
				i := 0
				for pb.Next() {
					kp := perPart[skew.Next()]
					if len(kp) > 0 {
						mt.Get(kp[(i*61)%len(kp)])
					}
					i++
				}
			})
		})
		b.Run(fmt.Sprintf("Partitioned/delta%.0f", delta), func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				skew := workload.NewPartitionSkew(2, parts, delta)
				ops := make([]partition.Op, batch)
				i := 0
				for pb.Next() {
					p := skew.Next()
					kp := perPart[p]
					if len(kp) == 0 {
						continue
					}
					for j := range ops {
						ops[j] = partition.Op{Kind: partition.OpGet, Key: kp[(i+j)%len(kp)]}
					}
					ps.Do(p, ops)
					i++
				}
			})
		})
	}
}

// BenchmarkSec63 measures §6.3: Masstree vs the +IntCmp binary tree inside
// the logging system.
func BenchmarkSec63(b *testing.B) {
	keys := benchKeySet(5)
	dir, err := os.MkdirTemp("", "bench-sec63-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := kvstore.Open(kvstore.Config{Dir: dir, Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	load := st.Session(0)
	for _, k := range keys {
		load.PutSimple(k, k)
	}
	load.Close()
	bt := binarytree.New(binarytree.WithIntCmp(), binarytree.WithArena())
	for _, k := range keys {
		bt.Put(k, value.New(k))
	}
	b.Run("Masstree/get", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			sess := st.Session(0)
			defer sess.Close()
			i := 0
			for pb.Next() {
				sess.GetValue(keys[(i*61)%len(keys)])
				i++
			}
		})
	})
	b.Run("BinaryIntCmp/get", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				bt.Get(keys[(i*61)%len(keys)])
				i++
			}
		})
	})
}

// BenchmarkSec64 measures §6.4's flexibility costs: fixed-key B-tree,
// sequential tree, and hash table against Masstree.
func BenchmarkSec64(b *testing.B) {
	fixed := workload.Keys(workload.Fixed8Decimal(6), benchKeys)
	mt := core.New()
	bt := btree.New(btree.WithPermuter())
	ht := hashtable.New(3 * benchKeys)
	for _, k := range fixed {
		v := value.New(k)
		mt.Put(k, v)
		bt.Put(k, v)
		ht.Put(k, v)
	}
	b.Run("Masstree/get8", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				mt.Get(fixed[(i*61)%len(fixed)])
				i++
			}
		})
	})
	b.Run("FixedBtree/get8", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				bt.Get(fixed[(i*61)%len(fixed)])
				i++
			}
		})
	})
	b.Run("HashTable/get8", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				ht.Get(fixed[(i*61)%len(fixed)])
				i++
			}
		})
	})
	b.Run("SeqTree/put1core", func(b *testing.B) {
		st := seqtree.New()
		keys := benchKeySet(7)
		for i := 0; i < b.N; i++ {
			k := keys[i%len(keys)]
			st.Put(k, value.New(k))
		}
	})
	b.Run("Masstree/put1core", func(b *testing.B) {
		tr := core.New()
		keys := benchKeySet(7)
		for i := 0; i < b.N; i++ {
			k := keys[i%len(keys)]
			tr.Put(k, value.New(k))
		}
	})
}

// BenchmarkCkpt measures §5's checkpoint write and recovery.
func BenchmarkCkpt(b *testing.B) {
	dir, err := os.MkdirTemp("", "bench-ckpt-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := kvstore.Open(kvstore.Config{Dir: dir, Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	keys := benchKeySet(8)
	load := st.Session(0)
	for _, k := range keys {
		load.PutSimple(k, k)
	}
	load.Close()
	b.Run("checkpoint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := st.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
	})
	st.Close()
	b.Run("recover", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := kvstore.Open(kvstore.Config{Dir: dir, Workers: 2, MaintainEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			if r.Len() == 0 {
				b.Fatal("recovered nothing")
			}
			r.Close()
		}
	})
}

// BenchmarkCoreOps provides fine-grained single-operation costs for the
// central data structure (useful for profiling; not a paper figure).
func BenchmarkCoreOps(b *testing.B) {
	keys := benchKeySet(9)
	tr := core.New()
	for _, k := range keys {
		tr.Put(k, value.New(k))
	}
	b.Run("get-hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr.Get(keys[(i*61)%len(keys)])
		}
	})
	b.Run("get-miss", func(b *testing.B) {
		miss := []byte("zzzzzz-not-there")
		for i := 0; i < b.N; i++ {
			tr.Get(miss)
		}
	})
	b.Run("update", func(b *testing.B) {
		v := value.New([]byte("x"))
		for i := 0; i < b.N; i++ {
			tr.Put(keys[(i*61)%len(keys)], v)
		}
	})
	b.Run("scan100", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			tr.Scan(keys[(i*61)%len(keys)], func([]byte, *value.Value) bool {
				n++
				return n < 100
			})
		}
	})
}
