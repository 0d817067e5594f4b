// Quickstart: the Masstree store's four operations (§3) used as an embedded
// library — get, put (with columns), remove, and getrange.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/kvstore"
	"repro/internal/value"
)

func main() {
	// An in-memory store (no persistence directory).
	store, err := kvstore.Open(kvstore.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	// Every operation runs through a session: one per goroutine, each bound
	// to a worker's log (§5).
	sess := store.Session(0)

	// put(k, v): values are arrays of columns; a put of several columns is
	// atomic with respect to concurrent readers (§4.7).
	sess.Put([]byte("user:alice"), []value.ColPut{
		{Col: 0, Data: []byte("Alice")},
		{Col: 1, Data: []byte("alice@example.org")},
	})
	sess.PutSimple([]byte("user:bob"), []byte("Bob"))
	sess.PutSimple([]byte("user:carol"), []byte("Carol"))

	// get(k) with a column subset.
	v, ok := sess.GetValue([]byte("user:alice"))
	fmt.Printf("alice email: %q (found=%v)\n", v.Col(1), ok)

	// Arbitrary binary keys are fine — including embedded NULs and long
	// shared prefixes, Masstree's specialty (§4.1).
	sess.PutSimple([]byte("bin\x00key"), []byte("binary!"))
	v, _ = sess.GetValue([]byte("bin\x00key"))
	fmt.Printf("binary key: %q\n", v.Col(0))

	// getrange(k, n): ordered traversal from a start key (§3).
	fmt.Println("users in order:")
	var rs kvstore.RangeScratch
	for _, pair := range sess.GetRangeInto([]byte("user:"), 10, []int{0}, &rs) {
		fmt.Printf("  %s = %s\n", pair.Key, pair.Cols[0])
	}

	// remove(k).
	sess.Remove([]byte("user:bob"))
	_, ok = sess.GetValue([]byte("user:bob"))
	fmt.Printf("bob after remove: found=%v\n", ok)
}
