package breaker

import (
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

// Steps of a breaker script. Outcomes without "probe" in the name come from
// calls that did not hold the probe slot.
const (
	fail      = iota // a non-probe failure
	succeed          // a non-probe success
	pass             // Allow admits an ordinary call
	reject           // Allow fails fast
	probe            // Allow admits the probe
	race             // eight concurrent Allows: one probe admitted, the rest fail fast
	probeOK          // the probe succeeds
	probeFail        // the probe fails
	abort            // the probe's slot is handed back unjudged
	wait             // the clock advances by exactly the cool-down
)

var stepNames = [...]string{"fail", "succeed", "pass", "reject", "probe", "race",
	"probeOK", "probeFail", "abort", "wait"}

// cool is the cool-down; the fake clock passes it only at a wait step.
const cool = 100 * time.Millisecond

// TestBreaker pins the state machine the backend tier and the cluster's
// node health both run on.
func TestBreaker(t *testing.T) {
	cases := []struct {
		name      string
		threshold int
		steps     []int
		want      State
		wantOpens uint64
	}{
		{"below threshold stays closed", 3,
			[]int{fail, fail, pass}, Closed, 0},
		{"trips at exactly N consecutive failures", 3,
			[]int{fail, fail, fail, reject}, Open, 1},
		{"a success resets the streak", 3,
			[]int{fail, fail, succeed, fail, fail, pass}, Closed, 0},
		{"open fails fast until the cool-down lapses", 1,
			[]int{fail, reject, reject}, Open, 1},
		{"past the cool-down it reads half-open", 1,
			[]int{fail, wait}, HalfOpen, 1},
		{"exactly one probe is admitted", 1,
			[]int{fail, wait, race, reject}, HalfOpen, 1},
		{"probe success closes", 1,
			[]int{fail, wait, probe, probeOK, pass}, Closed, 1},
		{"probe failure reopens and counts an open", 1,
			[]int{fail, wait, probe, probeFail, reject}, Open, 2},
		{"a reopened breaker probes again after its cool-down", 1,
			[]int{fail, wait, probe, probeFail, wait, probe, probeOK}, Closed, 2},
		{"abort hands the probe slot back", 1,
			[]int{fail, wait, probe, abort, probe, probeOK}, Closed, 1},
		{"non-probe outcomes while open change nothing", 2,
			[]int{fail, fail, succeed, fail, succeed, reject}, Open, 1},
		{"non-probe outcomes while half-open change nothing", 1,
			[]int{fail, wait, probe, succeed, fail, reject, probeOK}, Closed, 1},
		{"threshold 0 never trips", 0,
			[]int{fail, fail, fail, fail, pass}, Closed, 0},
		{"negative threshold never trips", -1,
			[]int{fail, fail, pass}, Closed, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			wall := clock.NewFake()
			b := New(tc.threshold, cool, wall)
			for i, st := range tc.steps {
				at := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("step %d (%s): "+format, append([]any{i, stepNames[st]}, args...)...)
				}
				switch st {
				case fail, succeed:
					b.Record(false, st == succeed)
				case pass, reject, probe:
					p, ok := b.Allow()
					if want := st != reject; ok != want || p != (st == probe) {
						at("Allow = probe %v ok %v", p, ok)
					}
				case race:
					if n := probesAdmitted(b, 8); n != 1 {
						at("%d of 8 concurrent calls admitted as the probe", n)
					}
				case probeOK, probeFail:
					b.Record(true, st == probeOK)
				case abort:
					b.Abort(true)
				case wait:
					wall.Advance(cool)
				}
			}
			if got := b.State(); got != tc.want {
				t.Errorf("State = %d, want %d", got, tc.want)
			}
			if got := b.Opens(); got != tc.wantOpens {
				t.Errorf("Opens = %d, want %d", got, tc.wantOpens)
			}
			if opened := b.OpenedAt(); opened.IsZero() != (tc.wantOpens == 0) {
				t.Errorf("OpenedAt = %v with %d opens", opened, tc.wantOpens)
			}
		})
	}
}

// probesAdmitted runs n concurrent Allows and counts the admitted calls;
// every admitted call must be the probe.
func probesAdmitted(b *Breaker, n int) int {
	var mu sync.Mutex
	var wg sync.WaitGroup
	admitted := 0
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if p, ok := b.Allow(); ok {
				mu.Lock()
				admitted++
				if !p {
					admitted += n // an ordinary call got through: never 1
				}
				mu.Unlock()
			}
		}()
	}
	close(start)
	wg.Wait()
	return admitted
}
