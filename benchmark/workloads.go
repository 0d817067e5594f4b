package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/kvstore"
	"repro/internal/value"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/internal/ycsb"
)

// scanLen is scan-short's N (pairs per getrange).
const scanLen = 10

// spec describes one workload. Names are final: later issues cite them.
type spec struct {
	name string
	why  string
	// records is the dataset size. mycsb selects the MYCSB record shape
	// ("user<i>" keys, ten 4-byte columns) instead of the paper's §6.1
	// shape (1-to-10-byte decimal keys, one 8-byte column).
	records int
	mycsb   bool
	// fill writes one connection's request ring from its own seed.
	fill func(d *dataset, seed int64, ring []wire.Request)
}

var specs = []spec{
	{
		name:    "get-uniform",
		why:     "uniform gets over 2M keys far beyond L2: tree descent misses and the per-batch wire/client/server path; bypasses every write-path layer",
		records: 2_000_000,
		fill:    fillUniform(wire.OpGet),
	},
	{
		name:    "put-uniform",
		why:     "uniform 8-byte overwrites of existing keys at constant live heap: write kernel, value build, WAL append/flush and steady-state GC; same descent as get-uniform",
		records: 2_000_000,
		fill:    fillUniform(wire.OpPut),
	},
	{
		name:    "mixed-zipf",
		why:     "MYCSB-A zipf 0.99 over 1M ten-column records: cache-resident hot set, gets and puts alternating inside a batch, contended borders, partial-column chained WAL",
		records: 1_000_000,
		mycsb:   true,
		fill:    fillMYCSBA,
	},
	{
		name:    "scan-short",
		why:     "uniform 10-pair range scans over the get-uniform dataset: core scan and wire pair encode/decode dominate; point-get and write optimisations should leave it still",
		records: 2_000_000,
		fill:    fillUniform(wire.OpGetRange),
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// subSeed derives an independent generator seed for one stream of a run
// (splitmix64 finalizer), so every generator is a function of --seed alone.
func subSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + (stream+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// Generator streams of one run.
const (
	streamKeys = iota
	streamLoad
	streamTail
	streamRing // + connection index
)

// dataset is the loaded key set plus its value shape.
type dataset struct {
	keys    [][]byte
	ncols   int
	colSize int
	// top holds the scanLen largest keys, ascending: a scan starting inside
	// it is the one case that may return fewer than scanLen pairs.
	top [][]byte
}

func newDataset(sp spec, records int, seed int64) *dataset {
	d := &dataset{ncols: 1, colSize: 8}
	if sp.mycsb {
		d.ncols, d.colSize = ycsb.NumColumns, ycsb.ColumnSize
		d.keys = make([][]byte, records)
		for i := range d.keys {
			d.keys[i] = workload.RecordKey(uint64(i))
		}
	} else {
		d.keys = workload.UniqueKeys(workload.Decimal(subSeed(seed, streamKeys)), records)
	}
	for _, k := range d.keys {
		if len(d.top) == scanLen && bytes.Compare(k, d.top[0]) < 0 {
			continue
		}
		i, _ := slices.BinarySearchFunc(d.top, k, bytes.Compare)
		d.top = slices.Insert(d.top, i, k)
		if len(d.top) > scanLen {
			d.top = d.top[1:]
		}
	}
	return d
}

// Self-certifying columns: the first half of a column is a nonce, the second
// half a checksum of (key, column, nonce), so any value a get, a scan or a
// recovery returns can be verified without a model of what was last written.

func certSum(key []byte, col int, nonce []byte) uint32 {
	h := uint32(2166136261)
	for _, b := range key {
		h = (h ^ uint32(b)) * 16777619
	}
	h = (h ^ uint32(col)) * 16777619
	for _, b := range nonce {
		h = (h ^ uint32(b)) * 16777619
	}
	// Fold the high bits down: a 4-byte column keeps only 16 checksum bits.
	return h ^ h>>16
}

// stamp fills data with a self-certifying column for (key, col).
func stamp(data, key []byte, col int, nonce uint32) {
	half := len(data) / 2
	var nb, sb [4]byte
	binary.LittleEndian.PutUint32(nb[:], nonce)
	copy(data[:half], nb[:])
	binary.LittleEndian.PutUint32(sb[:], certSum(key, col, data[:half]))
	copy(data[half:], sb[:])
}

// certified reports whether data is a column stamp wrote for (key, col).
func certified(data, key []byte, col int) bool {
	half := len(data) / 2
	if half == 0 {
		return false
	}
	var sb [4]byte
	binary.LittleEndian.PutUint32(sb[:], certSum(key, col, data[:half]))
	return bytes.Equal(data[half:], sb[:len(data)-half])
}

// certifiedCols checks a full-value read of key.
func (d *dataset) certifiedCols(key []byte, cols [][]byte) bool {
	if len(cols) != d.ncols {
		return false
	}
	for c, data := range cols {
		if len(data) != d.colSize || !certified(data, key, c) {
			return false
		}
	}
	return true
}

// load writes every record through one session, single-threaded.
func (d *dataset) load(ss *kvstore.Session, seed int64) {
	rng := rand.New(rand.NewSource(subSeed(seed, streamLoad)))
	buf := make([]byte, d.ncols*d.colSize)
	puts := make([]value.ColPut, d.ncols)
	for _, k := range d.keys {
		for c := range puts {
			data := buf[c*d.colSize : (c+1)*d.colSize]
			stamp(data, k, c, rng.Uint32())
			puts[c] = value.ColPut{Col: c, Data: data}
		}
		if d.ncols == 1 {
			ss.PutSimple(k, puts[0].Data)
		} else {
			ss.Put(k, puts)
		}
	}
}

// tailPuts applies exactly n puts of the workload's own put shape — a
// uniform 8-byte overwrite, or MYCSB-A's zipfian one-column update — from
// their own seed. The restart section replays this fixed tail, so its work
// does not depend on how many operations the timed phases completed.
func (d *dataset) tailPuts(sp spec, seed int64, n int, put func(key []byte, puts []value.ColPut)) error {
	seed = subSeed(seed, streamTail)
	data := make([]byte, d.colSize)
	one := make([]value.ColPut, 1)
	if !sp.mycsb {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			k := d.keys[rng.Intn(len(d.keys))]
			stamp(data, k, 0, rng.Uint32())
			one[0] = value.ColPut{Col: 0, Data: data}
			put(k, one)
		}
		return nil
	}
	src, err := ycsb.New("A", uint64(len(d.keys)), seed)
	if err != nil {
		return err
	}
	for i := 0; i < n; {
		op := src.Next()
		if op.Kind != ycsb.Update {
			continue
		}
		stamp(data, op.Key, op.Col, uint32(binary.LittleEndian.Uint16(op.Data)))
		one[0] = value.ColPut{Col: op.Col, Data: data}
		put(op.Key, one)
		i++
	}
	return nil
}

// putArena backs the Puts of one ring: one ColData and one payload per
// request, allocated together so a ring is three allocations, not 3n.
type putArena struct {
	cols []wire.ColData
	data []byte
	size int
}

func newPutArena(n, colSize int) *putArena {
	return &putArena{cols: make([]wire.ColData, 0, n), data: make([]byte, 0, n*colSize), size: colSize}
}

func (a *putArena) put(key []byte, col int, nonce uint32) []wire.ColData {
	a.data = a.data[:len(a.data)+a.size]
	data := a.data[len(a.data)-a.size:]
	stamp(data, key, col, nonce)
	a.cols = append(a.cols, wire.ColData{Col: col, Data: data})
	return a.cols[len(a.cols)-1:]
}

// fillUniform generates a ring of one op type over uniformly drawn keys.
// Gets and scans ask for all columns (Cols nil).
func fillUniform(op wire.OpCode) func(*dataset, int64, []wire.Request) {
	return func(d *dataset, seed int64, ring []wire.Request) {
		rng := rand.New(rand.NewSource(seed))
		var arena *putArena
		if op == wire.OpPut {
			arena = newPutArena(len(ring), d.colSize)
		}
		for i := range ring {
			k := d.keys[rng.Intn(len(d.keys))]
			ring[i] = wire.Request{Op: op, Key: k}
			switch op {
			case wire.OpPut:
				ring[i].Puts = arena.put(k, 0, rng.Uint32())
			case wire.OpGetRange:
				ring[i].N = scanLen
			}
		}
	}
}

// fillMYCSBA generates MYCSB-A from internal/ycsb: 50 % read-all-columns,
// 50 % update-one-column, scrambled zipf 0.99. The update payload keeps the
// generator's first two bytes as its nonce and certifies the rest.
func fillMYCSBA(d *dataset, seed int64, ring []wire.Request) {
	src, err := ycsb.New("A", uint64(len(d.keys)), seed)
	if err != nil {
		panic(err) // "A" is a constant the package defines
	}
	arena := newPutArena(len(ring), d.colSize)
	for i := range ring {
		op := src.Next()
		if op.Kind == ycsb.Read {
			ring[i] = wire.Request{Op: wire.OpGet, Key: op.Key}
			continue
		}
		ring[i] = wire.Request{Op: wire.OpPut, Key: op.Key,
			Puts: arena.put(op.Key, op.Col, uint32(binary.LittleEndian.Uint16(op.Data)))}
	}
}

// checkResponse verifies one response against its request. Every response
// gets the cheap checks (status, shape); content selects the full check of
// the returned bytes, applied to 1 response in 16.
func (d *dataset) checkResponse(req *wire.Request, resp *wire.Response, content bool) error {
	if resp.Status != wire.StatusOK {
		return fmt.Errorf("status %d for op %d key %q", resp.Status, req.Op, req.Key)
	}
	switch req.Op {
	case wire.OpGet:
		if len(resp.Cols) != d.ncols {
			return fmt.Errorf("get %q: %d columns, want %d", req.Key, len(resp.Cols), d.ncols)
		}
		if content && !d.certifiedCols(req.Key, resp.Cols) {
			return fmt.Errorf("get %q: value fails its checksum", req.Key)
		}
	case wire.OpPut:
		if resp.Version == 0 {
			return fmt.Errorf("put %q: no version", req.Key)
		}
	case wire.OpGetRange:
		want := scanLen
		if bytes.Compare(req.Key, d.top[0]) > 0 {
			// The key space ends inside the scan: count what is left.
			i, _ := slices.BinarySearchFunc(d.top, req.Key, bytes.Compare)
			want = len(d.top) - i
		}
		if len(resp.Pairs) != want {
			return fmt.Errorf("scan from %q: %d pairs, want %d", req.Key, len(resp.Pairs), want)
		}
		if !content {
			return nil
		}
		prev := req.Key
		for i, p := range resp.Pairs {
			if c := bytes.Compare(p.Key, prev); c < 0 || (c == 0 && i > 0) {
				return fmt.Errorf("scan from %q: pair %d key %q out of order", req.Key, i, p.Key)
			}
			if !d.certifiedCols(p.Key, p.Cols) {
				return fmt.Errorf("scan from %q: pair %q fails its checksum", req.Key, p.Key)
			}
			prev = p.Key
		}
	}
	return nil
}
