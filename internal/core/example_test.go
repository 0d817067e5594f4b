package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/value"
)

// Example shows the tree's basic operations: arbitrary binary keys, atomic
// read-modify-write, and ordered range queries.
func Example() {
	tr := core.New()

	tr.Put([]byte("apple"), value.New([]byte("red")))
	tr.Put([]byte("banana"), value.New([]byte("yellow")))
	tr.Put([]byte("cherry"), value.New([]byte("dark red")))

	if v, ok := tr.Get([]byte("banana")); ok {
		fmt.Println("banana is", string(v.Bytes()))
	}

	// Atomic read-modify-write under the border-node lock.
	tr.Update([]byte("apple"), func(old *value.Value) *value.Value {
		return value.Apply(old, []value.ColPut{{Col: 1, Data: []byte("fruit")}})
	})

	// Range query in key order.
	for _, kv := range tr.GetRange([]byte("b"), 10) {
		fmt.Printf("%s = %s\n", kv.Key, kv.Value.Bytes())
	}

	tr.Remove([]byte("cherry"))
	fmt.Println("keys left:", tr.Len())

	// Output:
	// banana is yellow
	// banana = yellow
	// cherry = dark red
	// keys left: 2
}

// Example_sharedPrefixes shows the trie-of-trees handling of long common
// prefixes (§4.1), the workload Masstree is designed for.
func Example_sharedPrefixes() {
	tr := core.New()
	urls := []string{
		"edu.harvard.seas.www/news-events",
		"edu.harvard.seas.www/academics",
		"edu.harvard.www/",
		"edu.harvard.law.www/",
		"edu.harvard.hms.www/",
	}
	for _, u := range urls {
		tr.Put([]byte(u), value.New([]byte("page")))
	}
	n := 0
	tr.Scan([]byte("edu.harvard.seas."), func(k []byte, _ *value.Value) bool {
		if string(k) > "edu.harvard.seas.zzz" {
			return false
		}
		n++
		return true
	})
	fmt.Println("seas pages:", n)
	fmt.Println("layers created:", tr.Stats().LayerCreations > 0)
	// Output:
	// seas pages: 2
	// layers created: true
}
