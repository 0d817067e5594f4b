package value

import (
	"bytes"
	"testing"
)

// model is the plain representation a Value is checked against: nothing
// packed, nothing derived.
type model struct {
	cols    [][]byte
	version uint64
	worker  uint32
	expiry  uint64
}

// apply is BuildTTLAt's contract on the model: puts land in order, a column
// beyond the width grows it, and the rest survives.
func (m model) apply(puts []ColPut, version uint64, worker uint32, expiry uint64) model {
	cols := append([][]byte(nil), m.cols...)
	for _, p := range puts {
		for p.Col >= len(cols) {
			cols = append(cols, nil)
		}
		cols[p.Col] = p.Data
	}
	return model{cols, version, worker, expiry}
}

// size is the layout's promise: a 13-byte header, eight more for an expiry,
// one end per column as narrow as the data's total allows, then the data.
func (m model) size() int {
	total := 0
	for _, c := range m.cols {
		total += len(c)
	}
	w := 1
	if total > 0xffff {
		w = 4
	} else if total > 0xff {
		w = 2
	}
	n := 13 + w*len(m.cols) + total
	if m.expiry != 0 {
		n += 8
	}
	return n
}

func (m model) check(t *testing.T, step int, v *Value) {
	t.Helper()
	if v.Version() != m.version || v.Worker() != m.worker || v.ExpiresAt() != m.expiry {
		t.Fatalf("step %d: version/worker/expiry = %d/%d/%d, want %d/%d/%d",
			step, v.Version(), v.Worker(), v.ExpiresAt(), m.version, m.worker, m.expiry)
	}
	if v.NumCols() != len(m.cols) {
		t.Fatalf("step %d: NumCols = %d, want %d", step, v.NumCols(), len(m.cols))
	}
	if v.Size() != m.size() {
		t.Fatalf("step %d: Size = %d, want %d", step, v.Size(), m.size())
	}
	cols := v.Cols()
	if len(cols) != len(m.cols) {
		t.Fatalf("step %d: Cols has %d columns, want %d", step, len(cols), len(m.cols))
	}
	for i, want := range m.cols {
		if !bytes.Equal(v.Col(i), want) || !bytes.Equal(cols[i], want) {
			t.Fatalf("step %d: column %d is %d bytes (%d in Cols), want %d", step, i, len(v.Col(i)), len(cols[i]), len(want))
		}
	}
	if v.Col(len(m.cols)) != nil || v.Col(-1) != nil {
		t.Fatalf("step %d: a column outside 0..%d is not nil", step, len(m.cols)-1)
	}
	if same := NewAt(1, m.cols...); !Equal(v, same) || !Equal(same, v) {
		t.Fatalf("step %d: not Equal to a value built whole from the model's columns", step)
	}
	if more := NewAt(1, append(m.cols[:len(m.cols):len(m.cols)], []byte("x"))...); Equal(v, more) {
		t.Fatalf("step %d: Equal to a value one column wider", step)
	}
}

// fuzzLens straddle both width boundaries of the column ends (255|256 and
// 65 535|65 536 bytes of data in all), fuzzCols the column count's
// (65 535|65 536, where its seventeenth bit moves into the flags byte; the
// small columns are repeated so that most chains stay cheap).
var (
	fuzzLens = []int{0, 1, 4, 8, 247, 254, 255, 256, 257, 65535 - 8, 65535, 65536, 70000}
	fuzzCols = []int{0, 1, 2, 3, 9, 255, 256, 1<<16 - 2, 1<<16 - 1, 0, 0, 0, 1, 1, 2, 4}
)

// FuzzValueModel runs a chain of builds decoded from the input and checks
// every accessor against the model after each. One op is three bytes —
// kind, column, length — and the kinds are: BuildTTLAt with one or two
// puts and with or without an expiry, a touch (no puts), Apply, and a fresh
// chain (a nil base, so the width can fall as well as the data). An
// overwrite with a shorter column is what narrows a value again.
func FuzzValueModel(f *testing.F) {
	op := func(kind, col, length int) []byte { return []byte{byte(kind), byte(col), byte(length)} }
	cat := func(ops ...[]byte) []byte { return bytes.Join(ops, nil) }
	f.Add(cat(op(0, 0, 3)))                                         // 1x8
	f.Add(cat(op(0, 0, 6), op(0, 0, 7), op(0, 0, 6)))               // 255 -> 256 -> 255
	f.Add(cat(op(0, 0, 10), op(0, 0, 11), op(0, 0, 3)))             // 65535 -> 65536 -> 8
	f.Add(cat(op(0, 0, 4), op(0, 1, 3), op(0, 1, 0)))               // 247+8 = 255, then 247
	f.Add(cat(op(0, 0, 9), op(1, 2, 3), op(1, 2, 0)))               // 65527+8 = 65535 under a TTL
	f.Add(cat(op(0, 0, 12), op(3, 0, 0), op(4, 3, 1), op(0, 0, 1))) // 4-byte ends, touched, applied, narrowed
	f.Add(cat(op(0, 7, 1), op(0, 8, 1), op(5, 0, 3), op(0, 6, 7)))  // 65535 then 65536 columns, then a fresh chain
	f.Add(cat(op(2, 5, 5), op(2, 6, 5), op(3, 0, 0), op(1, 0, 12), op(4, 1, 0), op(5, 6, 0)))
	f.Fuzz(func(t *testing.T, in []byte) {
		var v *Value
		var m model
		for step := 0; len(in) >= 3 && step < 8; step, in = step+1, in[3:] {
			kind, col, length := in[0]%6, fuzzCols[int(in[1])%len(fuzzCols)], fuzzLens[int(in[2])%len(fuzzLens)]
			data := bytes.Repeat([]byte{in[2] | 1}, length)
			puts := []ColPut{{Col: col, Data: data}}
			version, worker, expiry := m.version+1+uint64(in[1]), uint32(in[2])<<8|uint32(in[1]), uint64(0)
			switch kind {
			case 1: // under a TTL
				expiry = 1 + uint64(in[0])<<56
			case 2: // two puts; the later one wins a shared column
				puts = append(puts, ColPut{Col: fuzzCols[int(in[2])%len(fuzzCols)], Data: data[:length/2]})
			case 3: // touch
				puts, expiry = nil, uint64(in[1])
			case 4:
				v, m = Apply(v, puts), m.apply(puts, m.version+1, 0, 0)
				m.check(t, step, v)
				continue
			case 5: // a fresh chain
				v, m = nil, model{}
			}
			old, oldModel := v, m
			v, m = BuildTTLAt(v, puts, version, worker, expiry), m.apply(puts, version, worker, expiry)
			m.check(t, step, v)
			if old != nil {
				oldModel.check(t, step, old) // the build copied; its base is as it was
			}
		}
	})
}
