package fourtree

import (
	"fmt"
	"testing"

	"repro/internal/baseline/conformance"
	"repro/internal/value"
)

func mk() conformance.Store { return New() }

func TestModel(t *testing.T) { conformance.Model(t, mk) }

func TestConcurrentInserts(t *testing.T) { conformance.Concurrent(t, mk) }

func TestInternalNodesFull(t *testing.T) {
	tr := New()
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("%04d", i))
		tr.Put(k, value.New(k))
	}
	// Walk: every internal node must have exactly 3 keys and 4 children.
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			if len(n.keys) > 3 {
				t.Fatalf("leaf with %d keys", len(n.keys))
			}
			return
		}
		if len(n.keys) != 3 {
			t.Fatalf("internal node with %d keys", len(n.keys))
		}
		for i := 0; i < fanout; i++ {
			c := n.kids[i].Load()
			if c == nil {
				t.Fatal("nil child in internal node")
			}
			walk(c)
		}
	}
	walk(tr.root.Load())
}
