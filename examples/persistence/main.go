// Persistence: logging, checkpointing, and crash recovery (§5). The example
// writes through per-worker logs, takes a checkpoint, keeps writing, then
// simulates a restart and shows the store recovering the checkpoint plus the
// log tail.
//
//	go run ./examples/persistence
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/kvstore"
)

func main() {
	dir, err := os.MkdirTemp("", "masstree-persistence-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	fmt.Println("data directory:", dir)

	// Phase 1: write, checkpoint, write more, shut down.
	store, err := kvstore.Open(kvstore.Config{
		Dir:           dir,
		Workers:       2,
		FlushInterval: 50 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	// One session per worker log; the writes alternate between the two.
	sess := []*kvstore.Session{store.Session(0), store.Session(1)}
	for i := 0; i < 5000; i++ {
		sess[i%2].PutSimple([]byte(fmt.Sprintf("key%05d", i)), []byte("before-checkpoint"))
	}
	start := time.Now()
	_, n, err := store.Checkpoint()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpointed %d keys in %s (log space reclaimed)\n", n, time.Since(start).Round(time.Millisecond))

	for i := 4000; i < 6000; i++ {
		sess[i%2].PutSimple([]byte(fmt.Sprintf("key%05d", i)), []byte("after-checkpoint"))
	}
	sess[0].Remove([]byte("key00000"))
	if err := store.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("store closed (logs flushed)")

	// Phase 2: reopen — recovery = newest valid checkpoint + log replay in
	// per-key version order with the cutoff t = min over logs of the last
	// timestamp (§5).
	start = time.Now()
	recovered, err := kvstore.Open(kvstore.Config{Dir: dir, Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer recovered.Close()
	rs := recovered.Session(0)
	fmt.Printf("recovered %d keys in %s\n", recovered.Len(), time.Since(start).Round(time.Millisecond))

	for _, probe := range []struct{ key, want string }{
		{"key00001", "before-checkpoint"},
		{"key04500", "after-checkpoint"},
		{"key05999", "after-checkpoint"},
	} {
		v, ok := rs.GetValue([]byte(probe.key))
		fmt.Printf("  %s = %q (found=%v, want %q)\n", probe.key, v.Cols(), ok, probe.want)
	}
	_, ok := rs.GetValue([]byte("key00000"))
	fmt.Printf("  key00000 (removed pre-shutdown): found=%v\n", ok)
}
