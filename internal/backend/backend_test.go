package backend

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/clock"
	"repro/internal/vfs"
)

func TestColsCodecRoundTrip(t *testing.T) {
	cases := [][][]byte{
		nil,
		{},
		{[]byte("hello")},
		{[]byte("a"), nil, []byte("ccc")},
		{nil, nil},
		{bytes.Repeat([]byte{0xab}, 4096)},
	}
	for _, cols := range cases {
		p := EncodeCols(cols)
		got, err := DecodeCols(p)
		if err != nil {
			t.Fatalf("DecodeCols(%q): %v", p, err)
		}
		if len(got) != len(cols) {
			t.Fatalf("ncols = %d, want %d", len(got), len(cols))
		}
		for i := range cols {
			if !bytes.Equal(got[i], cols[i]) {
				t.Fatalf("col %d = %q, want %q", i, got[i], cols[i])
			}
		}
	}
}

func TestColsCodecCorrupt(t *testing.T) {
	good := EncodeCols([][]byte{[]byte("abc"), []byte("de")})
	for cut := 0; cut < len(good); cut++ {
		if _, err := DecodeCols(good[:cut]); err == nil && cut != 0 {
			// cut == 0 is not decodable either (empty uvarint), covered below.
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
	if _, err := DecodeCols(nil); err == nil {
		t.Fatal("empty payload decoded")
	}
	if _, err := DecodeCols(append(EncodeCols(nil), 0xff)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// An absurd column count must be rejected before it sizes an allocation.
	if _, err := DecodeCols([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}); err == nil {
		t.Fatal("huge column count accepted")
	}
}

func TestFileBackendRoundTrip(t *testing.T) {
	mem := vfs.NewMemFS()
	f, err := NewFile(mem, "/bk", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, ok, err := f.Load(ctx, []byte("nope")); ok || err != nil {
		t.Fatalf("absent key: ok=%v err=%v", ok, err)
	}
	keys := [][]byte{
		[]byte("k1"),
		[]byte(""),
		bytes.Repeat([]byte("long"), 100), // hash-named
	}
	for i, k := range keys {
		want := []byte{byte(i), 1, 2, 3}
		if err := f.Store(ctx, k, want); err != nil {
			t.Fatalf("store %q: %v", k, err)
		}
		got, ttl, ok, err := f.Load(ctx, k)
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("load %q = %q,%v,%v,%v want %q", k, got, ttl, ok, err, want)
		}
		if ttl != 5*time.Second {
			t.Fatalf("ttl = %v", ttl)
		}
	}
	// Overwrite is a replace.
	if err := f.Store(ctx, []byte("k1"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, _, ok, _ := f.Load(ctx, []byte("k1"))
	if !ok || string(got) != "v2" {
		t.Fatalf("after overwrite: %q %v", got, ok)
	}
	if err := f.Delete(ctx, []byte("k1")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := f.Load(ctx, []byte("k1")); ok || err != nil {
		t.Fatalf("after delete: ok=%v err=%v", ok, err)
	}
	if err := f.Delete(ctx, []byte("k1")); err != nil {
		t.Fatal("double delete should succeed")
	}
}

func TestWrapRetriesThenSucceeds(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	b := funcBackend{load: func(ctx context.Context, key []byte) ([]byte, time.Duration, bool, error) {
		if calls.Add(1) < 3 {
			return nil, 0, false, boom
		}
		return []byte("v"), 0, true, nil
	}}
	w := Wrap(b, WrapConfig{Retries: 3})
	got, _, ok, err := w.Load(context.Background(), []byte("k"))
	if err != nil || !ok || string(got) != "v" {
		t.Fatalf("load = %q,%v,%v", got, ok, err)
	}
	st := w.Stats()
	if st.Retries != 2 || st.Errors != 0 || st.Loads != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWrapExhaustsRetries(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	b := funcBackend{load: func(ctx context.Context, key []byte) ([]byte, time.Duration, bool, error) {
		calls.Add(1)
		return nil, 0, false, boom
	}}
	w := Wrap(b, WrapConfig{Retries: 2})
	if _, _, _, err := w.Load(context.Background(), []byte("k")); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("attempts = %d, want 3", calls.Load())
	}
	st := w.Stats()
	if st.Errors != 1 || st.Retries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWrapTimeout(t *testing.T) {
	m := NewMock(0)
	release := m.Hang()
	defer release()
	w := Wrap(m, WrapConfig{Timeout: 10 * time.Millisecond})
	start := time.Now()
	_, _, _, err := w.Load(context.Background(), []byte("k"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("timeout took %v", d)
	}
}

func TestWrapParentCancelDoesNotTripBreaker(t *testing.T) {
	m := NewMock(0)
	release := m.Hang()
	defer release()
	w := Wrap(m, WrapConfig{BreakerFailures: 1, BreakerOpenFor: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, _, _, err := w.Load(ctx, []byte("k")); err == nil {
		t.Fatal("expected error")
	}
	if st := w.Stats(); st.BreakerState != breaker.Closed || st.BreakerOpens != 0 {
		t.Fatalf("caller cancellation tripped the breaker: %+v", st)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	boom := errors.New("down")
	m := NewMock(0)
	m.Seed("k", []byte("v"))
	m.SetError(boom)
	wall := clock.NewFake()
	w := wrap(m, WrapConfig{
		BreakerFailures: 3,
		BreakerOpenFor:  30 * time.Millisecond,
	}, wall)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, _, _, err := w.Load(ctx, []byte("k")); !errors.Is(err, boom) {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if st := w.Stats(); st.BreakerState != breaker.Open || st.BreakerOpens != 1 {
		t.Fatalf("after threshold: %+v", st)
	}
	// While open: fail fast without touching the backend.
	before := m.Loads()
	if _, _, _, err := w.Load(ctx, []byte("k")); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("open call: %v", err)
	}
	if m.Loads() != before {
		t.Fatal("open breaker let a call through")
	}
	if st := w.Stats(); st.Rejected == 0 {
		t.Fatalf("rejection not counted: %+v", st)
	}
	// Heal the backend, wait out the cool-down: one probe closes it again.
	m.SetError(nil)
	wall.Advance(30 * time.Millisecond)
	if _, _, ok, err := w.Load(ctx, []byte("k")); err != nil || !ok {
		t.Fatalf("probe: ok=%v err=%v", ok, err)
	}
	if st := w.Stats(); st.BreakerState != breaker.Closed {
		t.Fatalf("after probe: %+v", st)
	}
	// A failed probe reopens.
	m.SetError(boom)
	for i := 0; i < 3; i++ {
		w.Load(ctx, []byte("k"))
	}
	if st := w.Stats(); st.BreakerState != breaker.Open || st.BreakerOpens != 2 {
		t.Fatalf("after refailure: %+v", st)
	}
	wall.Advance(30 * time.Millisecond)
	if _, _, _, err := w.Load(ctx, []byte("k")); !errors.Is(err, boom) {
		t.Fatalf("probe error: %v", err)
	}
	if st := w.Stats(); st.BreakerState != breaker.Open || st.BreakerOpens != 3 {
		t.Fatalf("failed probe did not reopen: %+v", st)
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	m := NewMock(0)
	m.Seed("k", []byte("v"))
	m.SetError(errors.New("down"))
	wall := clock.NewFake()
	w := wrap(m, WrapConfig{BreakerFailures: 1, BreakerOpenFor: 10 * time.Millisecond}, wall)
	ctx := context.Background()
	w.Load(ctx, []byte("k")) // trips
	wall.Advance(10 * time.Millisecond)
	// One hanging probe; concurrent calls must fail fast, not pile up.
	release := m.Hang()
	m.SetError(nil)
	var probeErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _, probeErr = w.Load(ctx, []byte("k"))
	}()
	waitFor(t, func() bool { return m.Loads() == 2 }) // probe arrived at the mock
	for i := 0; i < 4; i++ {
		if _, _, _, err := w.Load(ctx, []byte("k")); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("concurrent half-open call %d: %v", i, err)
		}
	}
	release()
	wg.Wait()
	if probeErr != nil {
		t.Fatalf("probe: %v", probeErr)
	}
	if st := w.Stats(); st.BreakerState != breaker.Closed {
		t.Fatalf("after probe: %+v", st)
	}
}

func TestWrapConcurrencyLimiter(t *testing.T) {
	var live, peak atomic.Int64
	b := funcBackend{load: func(ctx context.Context, key []byte) ([]byte, time.Duration, bool, error) {
		n := live.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		live.Add(-1)
		return nil, 0, false, nil
	}}
	w := Wrap(b, WrapConfig{Concurrency: 3})
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Load(context.Background(), []byte("k"))
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 3 {
		t.Fatalf("peak concurrency %d > limit 3", p)
	}
}

func TestMockSingleflightInstrumentation(t *testing.T) {
	m := NewMock(0)
	m.Seed("k", []byte("v"))
	release := m.Hang()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Load(context.Background(), []byte("k"))
		}()
	}
	waitFor(t, func() bool { return m.Loads() == 4 })
	release()
	wg.Wait()
	if m.MaxConcurrentLoads() != 4 {
		t.Fatalf("max concurrent = %d, want 4", m.MaxConcurrentLoads())
	}
	if m.LoadsFor("k") != 4 {
		t.Fatalf("loads for k = %d", m.LoadsFor("k"))
	}
}

// funcBackend adapts bare funcs to Backend for tests.
type funcBackend struct {
	load  func(ctx context.Context, key []byte) ([]byte, time.Duration, bool, error)
	store func(ctx context.Context, key, payload []byte) error
	del   func(ctx context.Context, key []byte) error
}

func (f funcBackend) Load(ctx context.Context, key []byte) ([]byte, time.Duration, bool, error) {
	if f.load == nil {
		return nil, 0, false, nil
	}
	return f.load(ctx, key)
}

func (f funcBackend) Store(ctx context.Context, key, payload []byte) error {
	if f.store == nil {
		return nil
	}
	return f.store(ctx, key, payload)
}

func (f funcBackend) Delete(ctx context.Context, key []byte) error {
	if f.del == nil {
		return nil
	}
	return f.del(ctx, key)
}

// waitFor yields until cond holds, failing the test after 2 s of real time.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
	}
}
