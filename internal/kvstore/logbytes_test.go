package kvstore

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/clock"
	"repro/internal/value"
	"repro/internal/vfs"
	"repro/internal/wal"
	"repro/internal/workload"
)

// logFileBytes sums the sizes of every log file in dir.
func logFileBytes(t *testing.T, dir string) (n int64) {
	t.Helper()
	files, err := wal.ListLogFilesFS(vfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		fi, err := os.Stat(f.Path)
		if err != nil {
			t.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

// TestLogBytesPerPut pins the log bytes an overwrite costs, exactly, on the
// benchmark's two put shapes. One worker at seed 1 loads 20 000 decimal keys,
// flushes, makes 20 000 uniform overwrites and flushes again; the log files'
// growth over the overwrites ÷ the puts is the reading.
//
// appendRecord's layout gives each record's size: the frame (crc u32, length
// u32) 8 + ts 8 + op 1 + key length 4 + the key + column count 2 + per column
// 2 + 4 + its data, and 8 more for a delta's prev link.
//   - put-uniform: an 8-byte column over a one-column value is the whole
//     value, an insert: 37 B + the key.
//   - mixed-zipf: one 4-byte column of ten is a delta: 41 B + the key.
func TestLogBytesPerPut(t *testing.T) {
	const n = 20_000
	for _, sh := range []struct {
		name           string
		ncols, colSize int
		fixed          int64 // a record's bytes besides its key
		grew           int64 // the log's growth at seed 1: 46.481 and 50.481 B/put
	}{
		{"put-uniform", 1, 8, 37, 929_613},
		{"mixed-zipf", 10, 4, 41, 1_009_613},
	} {
		t.Run(sh.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openAt(t, Config{Dir: dir, Workers: 1}, clock.NewFake())
			ss := s.Session(0)
			keys := workload.UniqueKeys(workload.Decimal(1), n)
			puts := make([]value.ColPut, sh.ncols)
			for _, k := range keys {
				for c := range puts {
					puts[c] = value.ColPut{Col: c, Data: make([]byte, sh.colSize)}
				}
				ss.Put(k, puts)
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			before := logFileBytes(t, dir)

			rng := rand.New(rand.NewSource(1))
			var want int64
			for i := 0; i < n; i++ {
				k := keys[rng.Intn(n)]
				ss.Put(k, []value.ColPut{{Col: rng.Intn(sh.ncols), Data: []byte(fmt.Sprintf("%0*d", sh.colSize, i%10_000))}})
				want += sh.fixed + int64(len(k))
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			grew := logFileBytes(t, dir) - before
			if grew != want {
				t.Errorf("the overwrites grew the log by %d B, want %d (%d B a record besides the key)", grew, want, sh.fixed)
			}
			if grew != sh.grew {
				t.Errorf("%.3f log B/put, want %.3f", float64(grew)/n, float64(sh.grew)/n)
			}
		})
	}
}
