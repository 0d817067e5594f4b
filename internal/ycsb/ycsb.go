// Package ycsb implements MYCSB, the paper's modified Yahoo! Cloud Serving
// Benchmark (§7): zipfian key popularity over a fixed record set, keys of
// 5–24 bytes ("user" plus a decimal id), values of ten 4-byte columns.
// Reads fetch all ten columns; updates modify one 4-byte column; MYCSB-E's
// scans return one column for n adjacent keys, n uniform in [1, 100].
// Unlike stock YCSB, puts modify existing keys rather than inserting, which
// preserves the popularity distribution across client processes.
//
// Workloads: A = 50% get / 50% put, B = 95/5, C = all gets,
// E = 95% getrange / 5% put.
package ycsb

import (
	"fmt"
	"math/rand"

	"repro/internal/workload"
)

// Kind is an operation type.
type Kind uint8

// Operation kinds.
const (
	Read   Kind = iota // get all columns
	Update             // put one column
	ScanOp             // getrange, one column
)

// NumColumns and ColumnSize are the paper's value shape: small columns
// ensure no workload is bottlenecked by network or SSD bandwidth.
const (
	NumColumns = 10
	ColumnSize = 4
)

// MaxScanLen bounds getrange lengths (uniform 1..MaxScanLen).
const MaxScanLen = 100

// Op is one benchmark operation.
type Op struct {
	Kind    Kind
	Key     []byte
	Col     int    // column for Update and ScanOp
	Data    []byte // Update payload (ColumnSize bytes)
	ScanLen int    // ScanOp length
}

// Source generates one client's operation stream. Not safe for concurrent
// use; create one per worker.
type Source struct {
	readPct int
	scanPct int
	keys    workload.KeyGen
	rng     *rand.Rand
}

// New creates a MYCSB source. name is one of "A", "B", "C", "E"; records is
// the database size the keys are drawn over (zipfian-popular).
func New(name string, records uint64, seed int64) (*Source, error) {
	s := &Source{keys: workload.ZipfKeys(seed, records), rng: rand.New(rand.NewSource(seed ^ 0x5bd1e995))}
	switch name {
	case "A":
		s.readPct = 50
	case "B":
		s.readPct = 95
	case "C":
		s.readPct = 100
	case "E":
		s.scanPct = 95
	default:
		return nil, fmt.Errorf("ycsb: unknown workload %q (want A, B, C, or E)", name)
	}
	return s, nil
}

// Next returns the next operation.
func (s *Source) Next() Op {
	k := s.keys.Next()
	r := s.rng.Intn(100)
	switch {
	case s.scanPct > 0 && r < s.scanPct:
		return Op{Kind: ScanOp, Key: k, Col: s.rng.Intn(NumColumns), ScanLen: 1 + s.rng.Intn(MaxScanLen)}
	case s.scanPct > 0:
		return Op{Kind: Update, Key: k, Col: s.rng.Intn(NumColumns), Data: s.payload()}
	case r < s.readPct:
		return Op{Kind: Read, Key: k}
	default:
		return Op{Kind: Update, Key: k, Col: s.rng.Intn(NumColumns), Data: s.payload()}
	}
}

func (s *Source) payload() []byte {
	b := make([]byte, ColumnSize)
	s.rng.Read(b)
	return b
}

// LoadRecord returns record i's key and initial columns for database
// pre-population.
func LoadRecord(i uint64) (key []byte, cols [][]byte) {
	key = workload.RecordKey(i)
	cols = make([][]byte, NumColumns)
	for c := range cols {
		col := make([]byte, ColumnSize)
		col[0] = byte(i)
		col[1] = byte(i >> 8)
		col[2] = byte(c)
		col[3] = byte(i>>16) ^ byte(c)
		cols[c] = col
	}
	return key, cols
}

// AllCols is the column list for full-value reads.
var AllCols = func() []int {
	out := make([]int, NumColumns)
	for i := range out {
		out[i] = i
	}
	return out
}()
