package kvstore

import (
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/breaker"
	"repro/internal/clock"
	"repro/internal/value"
)

// TestDeadlineRule pins one rule for the deadlines the wall clock governs: a
// deadline has passed at its own instant, and not 1 ns before. (The log's
// retry hold-back, the fifth, is pinned the same way by wal's
// TestFlushRetryBackoff.)
func TestDeadlineRule(t *testing.T) {
	const d = time.Second
	// Each arm sets a deadline d past the clock's reading and returns a probe
	// of whether it has passed.
	cases := []struct {
		name string
		arm  func(t *testing.T, wall *clock.Fake) (passed func() bool)
	}{
		{"Value.Expired", func(t *testing.T, wall *clock.Fake) func() bool {
			v := value.BuildTTLAt(nil, col0("v"), 1, 0, uint64(wall.Now().Add(d).UnixNano()))
			return func() bool { return v.Expired(wall.Now().UnixNano()) }
		}},
		{"kvstore.expired", func(t *testing.T, wall *clock.Fake) func() bool {
			v := value.BuildTTLAt(nil, col0("v"), 1, 0, uint64(wall.Now().Add(d).UnixNano()))
			return func() bool { return expired(wall, v) }
		}},
		{"negative cache", func(t *testing.T, wall *clock.Fake) func() bool {
			s := openAt(t, Config{Backend: backend.NewMock(0), NegativeTTL: d}, wall)
			s.loader.noteNegative([]byte("ghost"))
			return func() bool { return !s.loader.negHit([]byte("ghost")) }
		}},
		{"breaker probe", func(t *testing.T, wall *clock.Fake) func() bool {
			b := breaker.New(1, d, wall)
			b.Record(false, false)
			return func() bool {
				probe, ok := b.Allow()
				b.Abort(probe)
				return ok
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wall := clock.NewFake()
			passed := tc.arm(t, wall)
			wall.Advance(d - 1)
			if passed() {
				t.Fatal("passed 1 ns before its deadline")
			}
			wall.Advance(1)
			if !passed() {
				t.Fatal("not passed at its deadline")
			}
		})
	}
}
