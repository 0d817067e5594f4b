package kvstore

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/value"
	"repro/internal/wal"
)

// matrixBase is the state of the key a matrix cell writes over.
type matrixBase int

const (
	absentBase      matrixBase = iota
	sameWorkerBase             // live, last logged by the writing worker
	otherWorkerBase            // live, last logged by another worker: a cross-log handoff
	expiredBase                // physically present but lapsed: reads as absent
)

func (b matrixBase) String() string {
	return [...]string{"absent", "live-same-worker", "live-other-worker", "expired"}[b]
}

// matrixCell is one (entry point, base) pair and the record it must log.
// The write under test always goes through worker 0 and, where the entry
// point takes columns, puts column 0 = "n0" over a base of [b0 b1]; loads
// carry [L0 L1]; Touch and the TTL forms carry one far-future expiry. What
// a reader sees afterwards, and whether the write applies at all, is the
// reference model's answer to the same inputs.
type matrixCell struct {
	entry  string
	base   matrixBase
	op     wal.Op // the record's op, when the write applies
	linked bool   // record's Prev is the base's version (false: 0 — an insert)
	puts   string // the record's column set, "col=data" space-joined
}

var matrixCells = []matrixCell{
	{"Put", absentBase, wal.OpInsert, false, "0=n0"},
	{"Put", sameWorkerBase, wal.OpPut, true, "0=n0"},
	{"Put", otherWorkerBase, wal.OpInsert, false, "0=n0 1=b1"},
	{"Put", expiredBase, wal.OpInsert, false, "0=n0"},

	{"PutTTL", absentBase, wal.OpInsertTTL, false, "0=n0"},
	{"PutTTL", sameWorkerBase, wal.OpPutTTL, true, "0=n0"},
	{"PutTTL", otherWorkerBase, wal.OpInsertTTL, false, "0=n0 1=b1"},
	{"PutTTL", expiredBase, wal.OpInsertTTL, false, "0=n0"},

	{"Touch", absentBase, 0, false, ""},
	{"Touch", sameWorkerBase, wal.OpInsertTTL, false, "0=b0 1=b1"},
	{"Touch", otherWorkerBase, wal.OpInsertTTL, false, "0=b0 1=b1"},
	{"Touch", expiredBase, 0, false, ""},

	{"CasPutHit", absentBase, wal.OpInsert, false, "0=n0"},
	{"CasPutHit", sameWorkerBase, wal.OpPut, true, "0=n0"},
	{"CasPutHit", otherWorkerBase, wal.OpInsert, false, "0=n0 1=b1"},
	{"CasPutHit", expiredBase, wal.OpInsert, false, "0=n0"},

	{"CasPutMiss", absentBase, 0, false, ""},
	{"CasPutMiss", sameWorkerBase, 0, false, ""},
	{"CasPutMiss", otherWorkerBase, 0, false, ""},
	{"CasPutMiss", expiredBase, 0, false, ""},

	{"installLoaded", absentBase, wal.OpInsertTTL, false, "0=L0 1=L1"},
	{"installLoaded", sameWorkerBase, 0, false, ""},
	{"installLoaded", otherWorkerBase, 0, false, ""},
	{"installLoaded", expiredBase, wal.OpInsertTTL, false, "0=L0 1=L1"},

	// The batch is [k x k]: k's first entry is the cell proper, x is a
	// bystander last logged by worker 0 whose one column the batch
	// overwrites (an insert, however k is logged), and k's second entry is
	// a duplicate to column 2 that must chain onto the first (a delta).
	// op/linked/puts describe k's first record.
	{"PutBatchInto", absentBase, wal.OpInsert, false, "0=n0"},
	{"PutBatchInto", sameWorkerBase, wal.OpPut, true, "0=n0"},
	{"PutBatchInto", otherWorkerBase, wal.OpInsert, false, "0=n0 1=b1"},
	{"PutBatchInto", expiredBase, wal.OpInsert, false, "0=n0"},
}

func fmtPuts(puts []value.ColPut) string {
	parts := make([]string, len(puts))
	for i, p := range puts {
		parts[i] = fmt.Sprintf("%d=%s", p.Col, p.Data)
	}
	return strings.Join(parts, " ")
}

// accountedBytes sums the packed sizes of everything physically in the tree —
// what CacheStats().BytesLive must equal after any sequence of writes.
func accountedBytes(s *Store) (n int64) {
	s.tree.Scan(nil, func(_ []byte, v *value.Value) bool {
		n += int64(v.Size())
		return true
	})
	return n
}

// TestWriteKernelMatrix pins every write entry point against every kind of
// base: the value a reader sees afterwards (the model's), the version's
// ordering (the model refuses a version at or below the key's last), the
// exact log record (an insert, from the puts or from every column of the published
// value, vs a linked delta), that no record of the cell's store is an OpPut
// with prev == 0, byte accounting, TTL-sweep arming, and that a restart
// rebuilds the same state with no broken chain.
func TestWriteKernelMatrix(t *testing.T) {
	for _, c := range matrixCells {
		t.Run(c.entry+"/"+c.base.String(), func(t *testing.T) { runMatrixCell(t, c) })
	}
}

func runMatrixCell(t *testing.T, c matrixCell) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Workers: 2}
	s := openAt(t, cfg, clock.NewFake())
	mr := newMirror(t, s, 2)
	b0, b1 := col(0, "b0"), col(1, "b1")
	future := nanosIn(s, time.Hour)
	var baseVer uint64
	switch c.base {
	case sameWorkerBase:
		baseVer = mr.putW(0, "k", b0, b1)
	case otherWorkerBase:
		baseVer = mr.putW(1, "k", b0, b1)
	case expiredBase:
		baseVer = mr.putTTLW(0, "k", -1, b0, b1)
	}
	xVer := mr.putW(0, "x", col(0, "x-old"))
	s.ttlUsed.Store(false) // the expired base armed it; the cell must arm it itself
	before, _ := mr.ref.Get("k", mr.now())

	// Run the entry point through the mirror, which holds what the store
	// reports and reads back to the model's answer over the same inputs —
	// whether the write applies, and what a reader sees afterwards, the
	// bystander included. ver is the version of key's (first) write; wantTTL
	// is the expiry the write carries.
	n0 := col(0, "n0")
	var ver, wantTTL uint64
	applied := true
	var batchVers []uint64
	switch c.entry {
	case "Put":
		ver = mr.putW(0, "k", n0)
	case "PutTTL":
		ver, wantTTL = mr.putTTLW(0, "k", time.Hour, n0), future
	case "Touch":
		ver, applied = mr.touchW(0, "k", time.Hour)
		wantTTL = future
	case "CasPutHit":
		ver, applied = mr.casW(0, "k", before.Version, n0)
	case "CasPutMiss":
		ver, applied = mr.casW(0, "k", before.Version+1, n0)
	case "installLoaded":
		got := s.Session(0).installLoaded([]byte("k"), [][]byte{[]byte("L0"), []byte("L1")}, future)
		ver, wantTTL = got.Version(), future
		applied = mr.ref.Install("k", ver, mr.now(), future, []byte("L0"), []byte("L1"))
		if installed := ver != before.Version; installed != applied {
			t.Fatalf("the store installed = %v, the model %v", installed, applied)
		}
		mr.readBack("load", 0, "k")
	case "PutBatchInto":
		batchVers = mr.batchW(0, []string{"k", "x", "k"}, []value.ColPut{n0}, []value.ColPut{col(0, "x-new")}, []value.ColPut{col(2, "d2")})
		ver = batchVers[0]
	default:
		t.Fatalf("unknown entry %q", c.entry)
	}
	if floor := s.clock.removeFloor.Load(); applied && ver <= floor {
		t.Errorf("version %d not above the remove floor %d", ver, floor)
	}
	if got, want := s.CacheStats().BytesLive, accountedBytes(s); got != want {
		t.Errorf("BytesLive = %d, the tree holds %d", got, want)
	}
	if got, want := s.ttlUsed.Load(), applied && wantTTL != 0; got != want {
		t.Errorf("ttlUsed = %v, want %v", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The log: exactly the records the cell should have appended.
	res, err := wal.RecoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	byTS := map[uint64]wal.Record{}
	written := 0
	for _, r := range res.Records {
		byTS[r.TS] = r
		if r.TS > xVer {
			written++
		}
		if r.Op.HasPrev() && r.Prev == 0 {
			t.Errorf("record %d is an op %d with prev 0: a record that stands alone is an insert", r.TS, r.Op)
		}
	}
	checkRecord := func(ts uint64, op wal.Op, prev uint64, puts string, expiry uint64) {
		t.Helper()
		r, ok := byTS[ts]
		if !ok {
			t.Errorf("no record at version %d", ts)
			return
		}
		if r.Op != op || r.Prev != prev || fmtPuts(r.Puts) != puts || r.Expiry != expiry || r.Worker != 0 {
			t.Errorf("record %d: op=%d prev=%d puts=%q expiry=%d worker=%d, want op=%d prev=%d puts=%q expiry=%d worker=0",
				ts, r.Op, r.Prev, fmtPuts(r.Puts), r.Expiry, r.Worker, op, prev, puts, expiry)
		}
	}
	wantWritten := 0
	if applied {
		wantWritten = 1
		prev := uint64(0)
		if c.linked {
			prev = baseVer
		}
		checkRecord(ver, c.op, prev, c.puts, wantTTL)
		if batchVers != nil {
			wantWritten = 3
			checkRecord(batchVers[1], wal.OpInsert, 0, "0=x-new", 0)
			checkRecord(batchVers[2], wal.OpPut, batchVers[0], "2=d2", 0)
		}
	}
	if written != wantWritten {
		t.Errorf("%d records logged by the cell, want %d", written, wantWritten)
	}

	// Recovery rebuilds what readers saw.
	r := openAt(t, cfg, clock.NewFake())
	if st := r.RecoveryStats(); st.BrokenChains != 0 || st.MissingLogs != 0 {
		t.Errorf("recovery stats %+v, want a clean replay", st)
	}
	mr.matches(r, "recovered")
}
