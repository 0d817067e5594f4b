// Package partition implements the hard-partitioned configuration of §6.6:
// N instances of the single-core Masstree variant (seqtree), each owned by
// one executor goroutine, with the key space statically partitioned. This
// is how VoltDB-style stores avoid concurrency control — and why they
// collapse under skew: a hot partition saturates its core while the others
// idle, and clients that preserve the skew ratio must wait for it.
//
// Clients address a partition explicitly (the paper's clients send each
// query to the instance appropriate for the query's key) and may batch
// operations per message to amortize the hand-off, as network clients batch
// queries. Figure 11 sends gets and puts; those are the only operations.
package partition

import (
	"hash/fnv"
	"sync"

	"repro/internal/baseline/seqtree"
	"repro/internal/value"
)

// OpKind selects the operation of an Op.
type OpKind uint8

// Operation kinds.
const (
	OpGet OpKind = iota
	OpPut
)

// Op is one operation addressed to a partition.
type Op struct {
	Kind  OpKind
	Key   []byte
	Value *value.Value // OpPut
}

// Result is one operation's outcome.
type Result struct {
	Value *value.Value
	OK    bool
}

// Store is a set of single-threaded partitions.
type Store struct {
	parts []*part
	wg    sync.WaitGroup
}

type part struct {
	tree *seqtree.Tree
	ch   chan batchReq
}

type batchReq struct {
	ops  []Op
	res  []Result
	done chan struct{}
}

// New creates a store with n partitions, each with a request queue of the
// given depth (in batches) and its own executor goroutine.
func New(n, queueDepth int) *Store {
	if n <= 0 {
		n = 1
	}
	if queueDepth <= 0 {
		queueDepth = 16
	}
	s := &Store{}
	for i := 0; i < n; i++ {
		p := &part{tree: seqtree.New(), ch: make(chan batchReq, queueDepth)}
		s.parts = append(s.parts, p)
		s.wg.Add(1)
		go s.run(p)
	}
	return s
}

func (s *Store) run(p *part) {
	defer s.wg.Done()
	for req := range p.ch {
		for i, op := range req.ops {
			switch op.Kind {
			case OpGet:
				v, ok := p.tree.Get(op.Key)
				req.res[i] = Result{Value: v, OK: ok}
			case OpPut:
				old, replaced := p.tree.Put(op.Key, op.Value)
				req.res[i] = Result{Value: old, OK: replaced}
			}
		}
		close(req.done)
	}
}

// PartitionFor statically maps a key to its partition.
func (s *Store) PartitionFor(key []byte) int {
	h := fnv.New32a()
	h.Write(key)
	return int(h.Sum32()) % len(s.parts)
}

// Do executes a batch of operations on one partition, blocking until the
// partition's executor has processed it. Results are in op order.
func (s *Store) Do(partition int, ops []Op) []Result {
	res := make([]Result, len(ops))
	req := batchReq{ops: ops, res: res, done: make(chan struct{})}
	s.parts[partition].ch <- req
	<-req.done
	return res
}

// Close shuts down the executors.
func (s *Store) Close() {
	for _, p := range s.parts {
		close(p.ch)
	}
	s.wg.Wait()
}
