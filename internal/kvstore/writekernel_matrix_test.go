package kvstore

import (
	"fmt"
	"strings"
	"testing"
	"time"

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

// matrixCell is one (entry point, base) pair and what it must produce. The
// write under test always goes through worker 0 and, where the entry point
// takes columns, puts column 0 = "n0" over a base of [b0 b1]; loads carry
// [L0 L1]; Touch and the TTL forms carry one far-future expiry.
type matrixCell struct {
	entry   string
	base    matrixBase
	applied bool   // the write took effect (false: declined, nothing changes, nothing is logged)
	cols    string // visible columns afterwards, "|"-joined; "" with !applied means unchanged
	op      wal.Op // the record's op
	linked  bool   // record's Prev is the base's version (false: 0 — an insert or an anchor)
	puts    string // the record's column set, "col=data" space-joined
}

var matrixCells = []matrixCell{
	{"Put", absentBase, true, "n0", wal.OpInsert, false, "0=n0"},
	{"Put", sameWorkerBase, true, "n0|b1", wal.OpPut, true, "0=n0"},
	{"Put", otherWorkerBase, true, "n0|b1", wal.OpPut, false, "0=n0 1=b1"},
	{"Put", expiredBase, true, "n0", wal.OpInsert, false, "0=n0"},

	{"PutTTL", absentBase, true, "n0", wal.OpInsertTTL, false, "0=n0"},
	{"PutTTL", sameWorkerBase, true, "n0|b1", wal.OpPutTTL, true, "0=n0"},
	{"PutTTL", otherWorkerBase, true, "n0|b1", wal.OpPutTTL, false, "0=n0 1=b1"},
	{"PutTTL", expiredBase, true, "n0", wal.OpInsertTTL, false, "0=n0"},

	{"Touch", absentBase, false, "", 0, false, ""},
	{"Touch", sameWorkerBase, true, "b0|b1", wal.OpPutTTL, false, "0=b0 1=b1"},
	{"Touch", otherWorkerBase, true, "b0|b1", wal.OpPutTTL, false, "0=b0 1=b1"},
	{"Touch", expiredBase, false, "", 0, false, ""},

	{"CasPutHit", absentBase, true, "n0", wal.OpInsert, false, "0=n0"},
	{"CasPutHit", sameWorkerBase, true, "n0|b1", wal.OpPut, true, "0=n0"},
	{"CasPutHit", otherWorkerBase, true, "n0|b1", wal.OpPut, false, "0=n0 1=b1"},
	{"CasPutHit", expiredBase, true, "n0", wal.OpInsert, false, "0=n0"},

	{"CasPutMiss", absentBase, false, "", 0, false, ""},
	{"CasPutMiss", sameWorkerBase, false, "", 0, false, ""},
	{"CasPutMiss", otherWorkerBase, false, "", 0, false, ""},
	{"CasPutMiss", expiredBase, false, "", 0, false, ""},

	{"installLoaded", absentBase, true, "L0|L1", wal.OpInsertTTL, false, "0=L0 1=L1"},
	{"installLoaded", sameWorkerBase, false, "", 0, false, ""},
	{"installLoaded", otherWorkerBase, false, "", 0, false, ""},
	{"installLoaded", expiredBase, true, "L0|L1", wal.OpInsertTTL, false, "0=L0 1=L1"},

	// The batch is [k x k]: k's first entry is the cell proper, x is a
	// bystander last logged by worker 0 (so a handoff on k makes the batch
	// mixed), and k's second entry is a duplicate that must chain onto the
	// first. cols is k's final state; op/linked/puts describe k's first
	// record.
	{"PutBatchInto", absentBase, true, "n0||d2", wal.OpInsert, false, "0=n0"},
	{"PutBatchInto", sameWorkerBase, true, "n0|b1|d2", wal.OpPut, true, "0=n0"},
	{"PutBatchInto", otherWorkerBase, true, "n0|b1|d2", wal.OpPut, false, "0=n0 1=b1"},
	{"PutBatchInto", expiredBase, true, "n0||d2", wal.OpInsert, false, "0=n0"},
}

// visible is what a reader can see of one key.
type visible struct {
	found   bool
	cols    string
	expiry  uint64
	version uint64
}

func (v visible) String() string {
	return fmt.Sprintf("{found=%v cols=%q expiry=%d version=%d}", v.found, v.cols, v.expiry, v.version)
}

func see(s *Store, key []byte) visible {
	v, ok := s.GetValue(key)
	if !ok {
		return visible{}
	}
	cols := make([]string, v.NumCols())
	for i := range cols {
		cols[i] = string(v.Col(i))
	}
	return visible{true, strings.Join(cols, "|"), v.ExpiresAt(), v.Version()}
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
// base: the value a reader sees afterwards, the version's ordering, the exact
// log record (insert vs column-complete prev==0 anchor vs linked delta), byte
// accounting, TTL-sweep arming, and that a restart rebuilds the same state
// with no broken chain.
func TestWriteKernelMatrix(t *testing.T) {
	for _, c := range matrixCells {
		t.Run(c.entry+"/"+c.base.String(), func(t *testing.T) { runMatrixCell(t, c) })
	}
}

func runMatrixCell(t *testing.T, c matrixCell) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Workers: 2, MaintainEvery: -1, FlushInterval: time.Hour}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	key, bystander := []byte("k"), []byte("x")
	future := nowNanos() + uint64(time.Hour)
	baseCols := []value.ColPut{{Col: 0, Data: []byte("b0")}, {Col: 1, Data: []byte("b1")}}
	var baseVer uint64
	switch c.base {
	case sameWorkerBase:
		baseVer = s.Put(0, key, baseCols)
	case otherWorkerBase:
		baseVer = s.Put(1, key, baseCols)
	case expiredBase:
		baseVer = s.PutTTL(0, key, baseCols, nowNanos()-1)
	}
	xVer := s.PutSimple(0, bystander, []byte("x-old"))
	s.ttlUsed.Store(false) // the expired base armed it; the cell must arm it itself
	before := see(s, key)
	if live := c.base == sameWorkerBase || c.base == otherWorkerBase; before.found != live {
		t.Fatalf("base set-up: key visible = %v", before.found)
	}

	// Run the entry point. ver is the version it reports for key's (first)
	// write, ok whether it reports having applied; wantTTL is the expiry the
	// resulting value must carry.
	n0 := []value.ColPut{{Col: 0, Data: []byte("n0")}}
	var ver, wantTTL uint64
	var ok bool
	var batchVers []uint64
	switch c.entry {
	case "Put":
		ver, ok = s.Put(0, key, n0), true
	case "PutTTL":
		ver, ok, wantTTL = s.PutTTL(0, key, n0, future), true, future
	case "Touch":
		ver, ok = s.Touch(0, key, future)
		wantTTL = future
	case "CasPutHit":
		ver, ok = s.CasPut(0, key, before.version, n0)
	case "CasPutMiss":
		ver, ok = s.CasPut(0, key, before.version+1, n0)
		if ver != before.version {
			t.Errorf("conflict reports current version %d, want the visible %d", ver, before.version)
		}
	case "installLoaded":
		got := s.installLoaded(0, key, [][]byte{[]byte("L0"), []byte("L1")}, future)
		ver, ok, wantTTL = got.Version(), got.Version() != before.version, future
	case "PutBatchInto":
		var sc BatchScratch
		vers := s.PutBatchInto(0, [][]byte{key, bystander, key}, [][]value.ColPut{
			n0, {{Col: 0, Data: []byte("x-new")}}, {{Col: 2, Data: []byte("d2")}},
		}, &sc)
		batchVers = append(batchVers, vers...)
		ver, ok = batchVers[0], true
	default:
		t.Fatalf("unknown entry %q", c.entry)
	}
	if ok != c.applied {
		t.Fatalf("applied = %v, want %v", ok, c.applied)
	}

	after := see(s, key)
	if !c.applied {
		if after != before {
			t.Errorf("a declined write changed the key: %v -> %v", before, after)
		}
	} else {
		finalVer := ver
		if batchVers != nil {
			finalVer = batchVers[2]
			if batchVers[2] <= batchVers[0] {
				t.Errorf("duplicate key's versions not increasing: %v", batchVers)
			}
		}
		if want := (visible{true, c.cols, wantTTL, finalVer}); after != want {
			t.Errorf("after the write: %v, want %v", after, want)
		}
		if ver <= baseVer {
			t.Errorf("version %d not above the base's %d", ver, baseVer)
		}
		if floor := s.clock.removeFloor.Load(); ver <= floor {
			t.Errorf("version %d not above the remove floor %d", ver, floor)
		}
	}
	if got, want := s.CacheStats().BytesLive, accountedBytes(s); got != want {
		t.Errorf("BytesLive = %d, the tree holds %d", got, want)
	}
	if got, want := s.ttlUsed.Load(), c.applied && wantTTL != 0; got != want {
		t.Errorf("ttlUsed = %v, want %v", got, want)
	}
	xAfter := see(s, bystander)
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
	if c.applied {
		wantWritten = 1
		prev := uint64(0)
		if c.linked {
			prev = baseVer
		}
		checkRecord(ver, c.op, prev, c.puts, wantTTL)
		if batchVers != nil {
			wantWritten = 3
			checkRecord(batchVers[1], wal.OpPut, xVer, "0=x-new", 0)
			checkRecord(batchVers[2], wal.OpPut, batchVers[0], "2=d2", 0)
		}
	}
	if written != wantWritten {
		t.Errorf("%d records logged by the cell, want %d", written, wantWritten)
	}

	// Recovery rebuilds what readers saw.
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.RecoveryStats(); st.BrokenChains != 0 || st.MissingLogs != 0 {
		t.Errorf("recovery stats %+v, want a clean replay", st)
	}
	if got := see(r, key); got != after {
		t.Errorf("recovered %v, live store had %v", got, after)
	}
	if got := see(r, bystander); got != xAfter {
		t.Errorf("recovered bystander %v, live store had %v", got, xAfter)
	}
}
