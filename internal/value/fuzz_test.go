package value

import (
	"bytes"
	"testing"

	"repro/internal/model"
)

// plain is the representation a Value is checked against: nothing packed,
// nothing derived.
type plain struct {
	cols    [][]byte
	version uint64
	worker  uint32
	expiry  uint64
}

// build is BuildTTLAt's contract: the columns are what the shared model's
// column put leaves behind, and the header carries what the build was given.
func (m plain) build(puts []ColPut, version uint64, worker uint32, expiry uint64) plain {
	mp := make([]model.ColPut, len(puts))
	for i, p := range puts {
		mp[i] = model.ColPut(p)
	}
	return plain{model.Apply(m.cols, mp), version, worker, expiry}
}

// size is the layout's promise: 1 to 16 columns of one length of at most 63
// bytes, at a version below 2^44 by a worker of at most 255, take an 8-byte
// header; anything else a 13-byte header and one end per column as narrow as
// the data's total allows. Either way eight more for an expiry, then the data.
func (m plain) size() int {
	total, equal := 0, true
	for _, c := range m.cols {
		total += len(c)
		equal = equal && len(c) == len(m.cols[0])
	}
	n := 8 + total
	if len(m.cols) == 0 || len(m.cols) > 16 || !equal || len(m.cols[0]) > 63 || m.version >= 1<<44 || m.worker > 255 {
		w := 1
		if total > 0xffff {
			w = 4
		} else if total > 0xff {
			w = 2
		}
		n = 13 + w*len(m.cols) + total
	}
	if m.expiry != 0 {
		n += 8
	}
	return n
}

func (m plain) check(t *testing.T, step int, v *Value) {
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
	if len(m.cols) == maxCols {
		return // a value one column wider cannot be built
	}
	if more := NewAt(1, append(m.cols[:len(m.cols):len(m.cols)], []byte("x"))...); Equal(v, more) {
		t.Fatalf("step %d: Equal to a value one column wider", step)
	}
}

// fuzzLens straddle both width boundaries of the column ends (255|256 and
// 65 535|65 536 bytes of data in all) and the compact form's column width
// (63|64, last so that the older seeds keep their lengths), fuzzCols reach
// the widest value (column MaxCol, 65 535 columns) and straddle the compact
// form's count (16|17, columns 15 and 16; the small columns are repeated so
// that most chains stay cheap).
var (
	fuzzLens = []int{0, 1, 4, 8, 247, 254, 255, 256, 257, 65535 - 8, 65535, 65536, 70000, 63, 64}
	fuzzCols = []int{0, 1, 2, 3, 9, 255, 256, MaxCol, 0, 0, 0, 0, 1, 15, 16, 4}
)

// FuzzValueModel runs a chain of builds decoded from the input and checks
// every accessor against the model after each. One op is three bytes —
// kind, column, length — and the kinds are: BuildTTLAt with one or two
// puts and with or without an expiry, a touch (no puts), Apply, a fresh
// chain (a nil base, so the width can fall as well as the data), a build at
// the compact form's edge — the column byte's high four bits draw a version
// from 2^44-2..2^44+1 and a worker from 254..257 — and a whole record: the
// same data in each of the first 0..17 columns (the column byte mod 18) at
// the next version by worker 0. In the last two the kind byte over seven is
// the expiry, so a chain crosses between the forms both ways. An overwrite
// with a shorter column is what narrows a value again; one that matches the
// other columns' width is what makes it compact again.
func FuzzValueModel(f *testing.F) {
	op := func(kind, col, length int) []byte { return []byte{byte(kind), byte(col), byte(length)} }
	cat := func(ops ...[]byte) []byte { return bytes.Join(ops, nil) }
	// edge is kind 6's column byte: column index c, version 2^44-2+v, worker 254+w.
	edge := func(c, v, w int) int { return c | v<<4 | w<<6 }
	f.Add(cat(op(0, 0, 3)))                                         // 1x8
	f.Add(cat(op(0, 0, 6), op(0, 0, 7), op(0, 0, 6)))               // 255 -> 256 -> 255
	f.Add(cat(op(0, 0, 10), op(0, 0, 11), op(0, 0, 3)))             // 65535 -> 65536 -> 8
	f.Add(cat(op(0, 0, 4), op(0, 1, 3), op(0, 1, 0)))               // 247+8 = 255, then 247
	f.Add(cat(op(0, 0, 9), op(1, 2, 3), op(1, 2, 0)))               // 65527+8 = 65535 under a TTL
	f.Add(cat(op(0, 0, 12), op(3, 0, 0), op(4, 3, 1), op(0, 0, 1))) // 4-byte ends, touched, applied, narrowed
	f.Add(cat(op(0, 7, 1), op(0, 8, 1), op(5, 0, 3), op(0, 6, 7)))  // 65535 columns, column 0 of them, then a fresh chain
	f.Add(cat(op(2, 5, 5), op(2, 6, 5), op(3, 0, 0), op(1, 0, 12), op(4, 1, 0), op(5, 6, 0)))
	// The compact form's edges, each crossed and crossed back: 1x8 at version
	// 2^44-1 | 2^44, by worker 255 | 256, 1x63 | 1x64, one column | two of
	// unequal widths (then a fresh 1x0), and an expiry on and off in both
	// forms.
	f.Add(cat(op(6, edge(0, 1, 1), 3), op(6, edge(0, 2, 1), 3), op(6, edge(0, 1, 1), 3)))
	f.Add(cat(op(6, edge(0, 0, 1), 3), op(6, edge(0, 0, 2), 3), op(6, edge(0, 0, 1), 3)))
	f.Add(cat(op(6, edge(0, 0, 1), 13), op(6, edge(0, 0, 1), 14), op(6, edge(0, 0, 1), 13)))
	f.Add(cat(op(6, edge(0, 0, 1), 3), op(6, edge(1, 0, 1), 2), op(5, 0, 0), op(6, edge(0, 0, 0), 0)))
	f.Add(cat(op(6+8, edge(0, 0, 1), 3), op(6, edge(0, 0, 1), 3), op(6+8, edge(0, 0, 2), 3), op(6, edge(0, 0, 2), 3)))
	// And with more columns than one: a 10x4 record whose column 3 goes to 8
	// bytes (unequal widths) and back to 4; 16x4 | 17x4, by a put to column
	// 16 and by a whole record, each from a fresh chain; 2x63 | 2x64; a 10x4
	// record at version 2^44-1 | 2^44; 16x0 | 17x0 (then a fresh 5x0); and a
	// 10x4 record's expiry on, off, on and off again.
	f.Add(cat(op(7, 10, 2), op(4, 3, 3), op(4, 3, 2)))
	f.Add(cat(op(7, 16, 2), op(4, 14, 2), op(5, 0, 0), op(7, 17, 2), op(5, 0, 0), op(7, 16, 2)))
	f.Add(cat(op(7, 2, 13), op(7, 2, 14), op(7, 2, 13)))
	f.Add(cat(op(7, 10, 2), op(6, edge(3, 1, 1), 2), op(6, edge(3, 2, 1), 2), op(6, edge(3, 1, 1), 2)))
	f.Add(cat(op(4, 13, 0), op(4, 14, 0), op(5, 0, 0), op(7, 5, 0)))
	f.Add(cat(op(7+8, 10, 2), op(3, 0, 0), op(3, 5, 0), op(7, 10, 2)))
	f.Fuzz(func(t *testing.T, in []byte) {
		var v *Value
		var m plain
		for step := 0; len(in) >= 3 && step < 8; step, in = step+1, in[3:] {
			kind, col, length := in[0]%8, fuzzCols[int(in[1])%len(fuzzCols)], fuzzLens[int(in[2])%len(fuzzLens)]
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
				v, m = Apply(v, puts), m.build(puts, m.version+1, 0, 0)
				m.check(t, step, v)
				continue
			case 5: // a fresh chain
				v, m = nil, plain{}
			case 6: // at the compact form's edge
				version, worker, expiry = 1<<44-2+uint64(in[1]>>4&3), 254+uint32(in[1]>>6), uint64(in[0]/8)
			case 7: // a whole record
				puts = make([]ColPut, int(in[1])%18)
				for i := range puts {
					puts[i] = ColPut{Col: i, Data: data}
				}
				version, worker, expiry = m.version+1, 0, uint64(in[0]/8)
			}
			old, oldModel := v, m
			v, m = BuildTTLAt(v, puts, version, worker, expiry), m.build(puts, version, worker, expiry)
			m.check(t, step, v)
			if old != nil {
				oldModel.check(t, step, old) // the build copied; its base is as it was
			}
		}
	})
}
