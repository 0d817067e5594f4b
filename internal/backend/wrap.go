package backend

import (
	"context"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/breaker"
	"repro/internal/clock"
)

// WrapConfig tunes the decorator stack. Zero values pick conservative
// defaults where one exists and disable the feature where "off" is
// meaningful (Timeout 0 = no per-attempt timeout, Concurrency 0 = no
// limiter, BreakerFailures 0 = no breaker).
type WrapConfig struct {
	// Timeout bounds each individual attempt (the retry loop multiplies
	// it). 0 leaves only the caller's context deadline.
	Timeout time.Duration
	// Retries is how many additional attempts follow a failed first one,
	// each after a backoff (see retryBase).
	Retries int
	// Concurrency caps in-flight backend calls; excess callers park on the
	// semaphore (context-aware). 0 = unlimited.
	Concurrency int
	// BreakerFailures is the consecutive-failure threshold that trips the
	// circuit open. 0 disables the breaker.
	BreakerFailures int
	// BreakerOpenFor is how long the circuit stays open before a half-open
	// probe is admitted; one successful probe closes it. Default 1s.
	BreakerOpenFor time.Duration
}

// The retry backoff starts at retryBase and doubles per attempt, capped at
// retryMax, with up to 50% random jitter added so herds of retriers
// decorrelate.
const (
	retryBase = 5 * time.Millisecond
	retryMax  = 500 * time.Millisecond
)

// Wrapped decorates a Backend with per-call timeouts, bounded jittered
// retries, a concurrency limiter, and a circuit breaker, in that nesting
// order: the breaker gates the whole call (one retried call is one breaker
// outcome, not one per attempt), the limiter bounds live calls, and the
// timeout bounds each attempt.
type Wrapped struct {
	b    Backend
	cfg  WrapConfig
	sem  chan struct{} // nil when unlimited
	br   *breaker.Breaker
	wall clock.Clock // the retry backoff's clock, and the breaker's

	loads, stores, deletes atomic.Uint64
	errors, retries        atomic.Uint64
	rejected               atomic.Uint64
}

// Wrap builds the decorator stack around b. A nil-adjustment pass fills in
// defaults; see WrapConfig.
func Wrap(b Backend, cfg WrapConfig) *Wrapped { return wrap(b, cfg, clock.Wall{}) }

// wrap is Wrap on the clock wall.
func wrap(b Backend, cfg WrapConfig, wall clock.Clock) *Wrapped {
	if cfg.BreakerOpenFor <= 0 {
		cfg.BreakerOpenFor = time.Second
	}
	w := &Wrapped{b: b, cfg: cfg, br: breaker.New(cfg.BreakerFailures, cfg.BreakerOpenFor, wall), wall: wall}
	if cfg.Concurrency > 0 {
		w.sem = make(chan struct{}, cfg.Concurrency)
	}
	return w
}

// Load implements Backend.
func (w *Wrapped) Load(ctx context.Context, key []byte) (payload []byte, ttl time.Duration, ok bool, err error) {
	err = w.do(ctx, func(actx context.Context) error {
		var aerr error
		payload, ttl, ok, aerr = w.b.Load(actx, key)
		return aerr
	})
	if err != nil {
		return nil, 0, false, err
	}
	w.loads.Add(1)
	return payload, ttl, ok, nil
}

// Store implements Backend.
func (w *Wrapped) Store(ctx context.Context, key, payload []byte) error {
	err := w.do(ctx, func(actx context.Context) error {
		return w.b.Store(actx, key, payload)
	})
	if err == nil {
		w.stores.Add(1)
	}
	return err
}

// Delete implements Backend.
func (w *Wrapped) Delete(ctx context.Context, key []byte) error {
	err := w.do(ctx, func(actx context.Context) error {
		return w.b.Delete(actx, key)
	})
	if err == nil {
		w.deletes.Add(1)
	}
	return err
}

// Stats snapshots the health counters.
func (w *Wrapped) Stats() Stats {
	return Stats{
		Loads:        w.loads.Load(),
		Stores:       w.stores.Load(),
		Deletes:      w.deletes.Load(),
		Errors:       w.errors.Load(),
		Retries:      w.retries.Load(),
		Rejected:     w.rejected.Load(),
		BreakerState: w.br.State(),
		BreakerOpens: w.br.Opens(),
	}
}

// do runs one backend call through the full stack. One call is one breaker
// outcome regardless of how many attempts the retry loop burned.
func (w *Wrapped) do(ctx context.Context, op func(context.Context) error) error {
	probe, ok := w.br.Allow()
	if !ok {
		w.rejected.Add(1)
		return ErrUnavailable
	}
	if w.sem != nil {
		select {
		case w.sem <- struct{}{}:
		case <-ctx.Done():
			// Never reached the backend: the outcome says nothing about its
			// health, so a probe slot is handed back rather than judged.
			w.br.Abort(probe)
			return ctx.Err()
		}
		defer func() { <-w.sem }()
	}
	var err error
	for attempt := 0; ; attempt++ {
		err = w.attempt(ctx, op)
		if err == nil {
			w.br.Record(probe, true)
			return nil
		}
		if ctx.Err() != nil {
			// The caller's own context expired or was canceled. The backend
			// was not proven sick (our per-attempt timeout never fired with
			// the parent still live), so the breaker stays untouched.
			w.br.Abort(probe)
			w.errors.Add(1)
			return err
		}
		if attempt >= w.cfg.Retries {
			break
		}
		w.retries.Add(1)
		if serr := w.sleep(ctx, backoff(attempt)); serr != nil {
			w.br.Abort(probe)
			w.errors.Add(1)
			return err
		}
	}
	w.br.Record(probe, false)
	w.errors.Add(1)
	return err
}

// attempt runs op once under the per-attempt timeout.
func (w *Wrapped) attempt(ctx context.Context, op func(context.Context) error) error {
	if w.cfg.Timeout <= 0 {
		return op(ctx)
	}
	actx, cancel := context.WithTimeout(ctx, w.cfg.Timeout)
	defer cancel()
	return op(actx)
}

// backoff returns the sleep before retry attempt+1: exponential from
// retryBase, capped at retryMax, plus up to 50% jitter.
func backoff(attempt int) time.Duration {
	d := retryBase
	for i := 0; i < attempt && d < retryMax; i++ {
		d *= 2
	}
	if d > retryMax {
		d = retryMax
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// sleep waits d on the wrapper's clock, or until ctx is done.
func (w *Wrapped) sleep(ctx context.Context, d time.Duration) error {
	t := w.wall.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C():
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
