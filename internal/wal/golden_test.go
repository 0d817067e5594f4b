package wal

import (
	"bytes"
	"encoding/hex"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/value"
	"repro/internal/vfs"
)

// TestLogBytesGolden pins the on-disk bytes of a log directory: an MTLOG2
// log holding one record of every op, written through one batch, and
// the logset OpenSetFS commits beside it. Recovery reads every record back
// with its fields intact.
func TestLogBytesGolden(t *testing.T) {
	mem := vfs.NewMemFS()
	if err := mem.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	set, err := OpenSetFS(mem, "d", 1, 3, true, time.Hour, clock.Wall{})
	if err != nil {
		t.Fatal(err)
	}
	cols := []value.ColPut{{Col: 0, Data: []byte("a")}, {Col: 2, Data: []byte("bc")}}
	want := []Record{
		{TS: 0x10, Prev: 0x0f, Op: OpPut, Key: []byte("k"), Puts: cols},
		{TS: 0x11, Prev: 0x10, Op: OpPutTTL, Key: []byte("k"), Puts: cols, Expiry: 0x99},
		{TS: 0x12, Op: OpInsert, Key: []byte("i"), Puts: cols},
		{TS: 0x13, Op: OpInsertTTL, Key: []byte("j"), Puts: cols[:1], Expiry: 0x98},
		{TS: 0x14, Op: OpRemove, Key: []byte("r")},
		{TS: 0x15, Op: OpMark},
	}
	b := set.Writer(0).Begin()
	b.Put(want[0].TS, want[0].Prev, want[0].Key, want[0].Puts, false, 0)
	b.Put(want[1].TS, want[1].Prev, want[1].Key, want[1].Puts, true, want[1].Expiry)
	b.Insert(want[2].TS, want[2].Key, want[2].Puts, nil, false, 0)
	b.Insert(want[3].TS, want[3].Key, want[3].Puts, nil, true, want[3].Expiry)
	b.Remove(want[4].TS, want[4].Key)
	b.Mark(want[5].TS)
	b.End()
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct{ name, want string }{
		{LogFileName(0, 3), "4d544c4f47320a" +
			"3498ecf3270000001000000000000000010f00000000000000010000006b0200000001000000610200020000006263" +
			"fe63007f2f00000011000000000000000410000000000000009900000000000000010000006b0200000001000000610200020000006263" +
			"2c4c58c71f00000012000000000000000501000000690200000001000000610200020000006263" +
			"d55ea86d1f0000001300000000000000069800000000000000010000006a010000000100000061" +
			"bb898a6d1000000014000000000000000201000000720000" +
			"be38de910f000000150000000000000003000000000000"},
		{LogSetFileName, "4d544c534554310a010000000300000000000000e38dff6e"},
	} {
		b, err := mem.ReadFile(filepath.Join("d", c.name))
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(b); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
	}

	res, err := RecoverDirAboveFS(mem, "d", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cutoff != 0x15 || res.MissingLogs != 0 || len(res.Records) != len(want)-1 {
		t.Fatalf("cutoff %#x, %d missing, %d records; want 0x15, 0, %d", res.Cutoff, res.MissingLogs, len(res.Records), len(want)-1)
	}
	for i, r := range res.Records {
		wr := want[i]
		if r.TS != wr.TS || r.Prev != wr.Prev || r.Op != wr.Op || r.Expiry != wr.Expiry ||
			!bytes.Equal(r.Key, wr.Key) || len(r.Puts) != len(wr.Puts) {
			t.Fatalf("record %d = %+v, want %+v", i, r, wr)
		}
		for j := range r.Puts {
			if r.Puts[j].Col != wr.Puts[j].Col || !bytes.Equal(r.Puts[j].Data, wr.Puts[j].Data) {
				t.Fatalf("record %d column %d = %+v, want %+v", i, j, r.Puts[j], wr.Puts[j])
			}
		}
	}
}
