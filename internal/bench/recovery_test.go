package bench

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"repro/internal/kvstore"
)

// BenchmarkRecoveryRestart measures restart time — checkpoint load plus log
// replay — against a store checkpointed with T parts (§5: recovery must be
// as parallel as the run-time path or it becomes the availability
// bottleneck). The store holds MASSTREE_RECOVERY_KEYS keys (default 60k for
// CI smoke; the recorded BENCH_recovery.json run uses 500k) with a 10% log
// tail beyond the checkpoint.
//
//	MASSTREE_RECOVERY_KEYS=500000 go test -run '^$' -bench RecoveryRestart ./internal/bench
func BenchmarkRecoveryRestart(b *testing.B) {
	keys := 60_000
	if v := os.Getenv("MASSTREE_RECOVERY_KEYS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			keys = n
		}
	}
	for _, parts := range []int{1, 8} {
		b.Run(fmt.Sprintf("keys=%d/parts=%d", keys, parts), func(b *testing.B) {
			dir := b.TempDir()
			cfg := kvstore.Config{Dir: dir, Workers: 4, MaintainEvery: -1, CheckpointParts: parts}
			s, err := kvstore.Open(cfg)
			if err != nil {
				b.Fatal(err)
			}
			ss := openSessions(s, 4)
			for i := 0; i < keys; i++ {
				k := []byte(fmt.Sprintf("user%012d", i*7))
				ss[i%4].PutSimple(k, k)
			}
			if _, _, err := s.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < keys/10; i++ {
				k := []byte(fmt.Sprintf("user%012d", i*7))
				ss[i%4].PutSimple(k, append([]byte("u-"), k...))
			}
			closeSessions(ss)
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := kvstore.Open(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if r.Len() != keys {
					b.Fatalf("recovered %d keys, want %d", r.Len(), keys)
				}
				b.StopTimer()
				if err := r.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
