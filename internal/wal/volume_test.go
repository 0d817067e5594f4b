package wal

import (
	"runtime"
	"testing"

	"repro/internal/value"
)

// retained is the capacity the writer's two buffers hold between them.
func (w *Writer) retained() int {
	w.fmu.Lock()
	defer w.fmu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	return cap(w.buf) + cap(w.fbuf)
}

func (w *Writer) buffered() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.buf)
}

// volumeWriter opens one log with its background flusher live at the
// default interval, and a 54-byte put record to fill it with: the
// benchmark's put-uniform record, to the byte. appendN appends n of them as
// a worker would that the flusher keeps up with: this loop logs half a
// gigabyte a second, ten times what the store can, so once a batch of
// sixteen has taken the buffer past kickLevel it yields until the kicked
// flusher has swapped the buffer out. Nothing but the flusher ever does —
// were the kick lost, each wait would last out the 200 ms tick.
func volumeWriter(t *testing.T) (w *Writer, appendN func(n int)) {
	t.Helper()
	set, err := OpenSet(t.TempDir(), 1, 1, false, DefaultFlushInterval)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close() })
	w = set.Writer(0)
	key := []byte("k-0123456")
	puts := []value.ColPut{{Col: 0, Data: []byte("8 bytes!")}}
	if n := len(appendRecord(nil, 2, 1, OpPut, key, puts, nil, 0)); n != 54 {
		t.Fatalf("record is %d bytes, want 54", n)
	}
	ts := uint64(1)
	return w, func(n int) {
		for i := 0; i < n; i++ {
			b := w.Begin()
			b.Put(ts+1, ts, key, puts, false, 0)
			b.End()
			ts++
			for i%16 == 15 && w.buffered() >= kickLevel {
				runtime.Gosched()
			}
		}
	}
}

// TestAppendVolumeAllocs pins the log buffers at the volume that matters:
// 16 MiB of put records through a writer whose own flusher does the
// flushing, some sixty kicked swaps. The two buffers must survive every one
// of them (no drop counted), so the whole run allocates at most what the two
// could still grow by — not the five bytes per byte logged that regrowing a
// discarded buffer from nothing costs (80 MiB here, and 260 B on every put
// of the benchmark, before kickLevel and the retain cap were moved apart).
func TestAppendVolumeAllocs(t *testing.T) {
	w, appendN := volumeWriter(t)
	appendN(4 << 20 / 54) // let both buffers reach their working size
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	appendN(16 << 20 / 54)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*maxRetainedLogBuf {
		t.Errorf("16 MiB of records allocated %d bytes, want <= %d (the two retained buffers)", got, 2*maxRetainedLogBuf)
	}
	if n := w.BufferDrops(); n != 0 {
		t.Errorf("%d buffers dropped in steady state: a buffer the flusher is kicked for must not be one it discards", n)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := w.retained(); got > 2*maxRetainedLogBuf {
		t.Errorf("buffers retain %d bytes, want <= %d", got, 2*maxRetainedLogBuf)
	}
}

// TestRetainedBufferBound pins the other side of the retain cap, the side
// heap_bytes_per_key depends on: a buffer that one huge put grew is released
// by the flush that wrote it, and counted; and a million small puts leave
// the two buffers holding no more than one cap between them.
func TestRetainedBufferBound(t *testing.T) {
	w, appendN := volumeWriter(t)
	insertOne(w, 2, []byte("huge"), []value.ColPut{{Col: 0, Data: make([]byte, 4<<20)}})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := w.retained(); got > 2*maxRetainedLogBuf {
		t.Errorf("after a 4 MiB put and its flush the buffers retain %d bytes, want <= %d", got, 2*maxRetainedLogBuf)
	}
	if n := w.BufferDrops(); n != 1 {
		t.Errorf("BufferDrops = %d after one oversized put, want 1", n)
	}

	appendN(1_000_000)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := w.retained(); got > maxRetainedLogBuf {
		t.Errorf("after 1M small puts the buffers retain %d bytes, want <= %d", got, maxRetainedLogBuf)
	}
	if n := w.BufferDrops(); n != 1 {
		t.Errorf("BufferDrops = %d after the small puts, want still 1", n)
	}
}
