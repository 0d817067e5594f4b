package model

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

const (
	now  = uint64(100_000_000_000_000)
	hour = uint64(3_600_000_000_000)
)

func col(c int, data string) ColPut { return ColPut{c, []byte(data)} }

// see is what a reader of key sees at at: "-", or the columns joined by |,
// then @version, then +expiry if there is one.
func see(m *Model, key string, at uint64) string {
	st, ok := m.Get(key, at)
	if !ok {
		return "-"
	}
	cols := make([]string, len(st.Cols))
	for i, c := range st.Cols {
		cols[i] = string(c)
	}
	s := fmt.Sprintf("%s@%d", strings.Join(cols, "|"), st.Version)
	if st.Expiry != 0 {
		s += fmt.Sprintf("+%d", st.Expiry-now)
	}
	return s
}

// baseOf puts k's base, [b0 b1] at version 10: absent, live (what the
// kvstore matrices call live-same-worker and live-other-worker; the model
// has no workers), live for an hour, lapsed an hour ago, or lapsed a
// nanosecond ago.
func baseOf(base string) *Model {
	m := New()
	exp := map[string]uint64{"live": 0, "live-ttl": now + hour, "expired": now - hour, "stale-reserve": now - 1}
	if e, ok := exp[base]; ok {
		m.PutTTL("k", 10, now, e, col(0, "b0"), col(1, "b1"))
	}
	return m
}

// TestCells pins each write and each drop over each base: what it reports
// and what a reader sees afterwards. These are the visible columns the
// kvstore write-kernel and drop matrices held before they read them from
// the model. A write puts column 0 = "n0" at version 20, a load carries
// [L0 L1], and the batch is k, then a bystander, then column 2 = "d2" on k
// again. A remove reports that a live value went, an eviction that any value
// went, and the sweep how many lapsed a minute before now, the read-through
// tier's stale-if-error window.
func TestCells(t *testing.T) {
	h := fmt.Sprint(hour)
	ops := map[string]func(m *Model) any{
		"Put":    func(m *Model) any { m.Put("k", 20, now, col(0, "n0")); return true },
		"PutTTL": func(m *Model) any { m.PutTTL("k", 20, now, now+hour, col(0, "n0")); return true },
		"Touch":  func(m *Model) any { return m.Touch("k", 20, now, now+hour) },
		"CasPutHit": func(m *Model) any {
			v, _ := m.Get("k", now)
			return fmt.Sprint(m.CasPut("k", v.Version, 20, now, col(0, "n0")))
		},
		"CasPutMiss": func(m *Model) any {
			v, _ := m.Get("k", now)
			return fmt.Sprint(m.CasPut("k", v.Version+1, 20, now, col(0, "n0")))
		},
		"Install": func(m *Model) any { return m.Install("k", 20, now, now+hour, []byte("L0"), []byte("L1")) },
		"Batch": func(m *Model) any {
			m.Put("k", 20, now, col(0, "n0"))
			m.Put("x", 21, now, col(0, "x-new"))
			m.Put("k", 22, now, col(2, "d2"))
			return true
		},
		"Remove": func(m *Model) any { return m.Remove("k", now) },
		"Evict":  func(m *Model) any { return m.Evict("k") },
		"Sweep":  func(m *Model) any { return m.Sweep(now - hour/60) },
	}
	for _, c := range []struct{ entry, base, reported, after string }{
		{"Put", "absent", "true", "n0@20"},
		{"Put", "live", "true", "n0|b1@20"},
		{"Put", "expired", "true", "n0@20"},
		{"PutTTL", "absent", "true", "n0@20+" + h},
		{"PutTTL", "live", "true", "n0|b1@20+" + h},
		{"PutTTL", "expired", "true", "n0@20+" + h},
		{"Touch", "absent", "false", "-"},
		{"Touch", "live", "true", "b0|b1@20+" + h},
		{"Touch", "expired", "false", "-"},
		{"CasPutHit", "absent", "20 true", "n0@20"},
		{"CasPutHit", "live", "20 true", "n0|b1@20"},
		{"CasPutHit", "expired", "20 true", "n0@20"},
		{"CasPutMiss", "absent", "0 false", "-"},
		{"CasPutMiss", "live", "10 false", "b0|b1@10"},
		{"CasPutMiss", "expired", "0 false", "-"},
		{"Install", "absent", "true", "L0|L1@20+" + h},
		{"Install", "live", "false", "b0|b1@10"},
		{"Install", "expired", "true", "L0|L1@20+" + h},
		{"Batch", "absent", "true", "n0||d2@22"},
		{"Batch", "live", "true", "n0|b1|d2@22"},
		{"Batch", "expired", "true", "n0||d2@22"},
		{"Remove", "absent", "false", "-"},
		{"Remove", "live", "true", "-"},
		{"Remove", "live-ttl", "true", "-"},
		{"Remove", "expired", "false", "-"},
		{"Evict", "absent", "false", "-"},
		{"Evict", "live", "true", "-"},
		{"Evict", "live-ttl", "true", "-"},
		{"Evict", "expired", "true", "-"},
		{"Sweep", "absent", "0", "-"},
		{"Sweep", "live", "0", "b0|b1@10"},
		{"Sweep", "live-ttl", "0", "b0|b1@10+" + h},
		{"Sweep", "expired", "1", "-"},
		{"Sweep", "stale-reserve", "0", "-"},
	} {
		m := baseOf(c.base)
		if got := fmt.Sprint(ops[c.entry](m)); got != c.reported || see(m, "k", now) != c.after {
			t.Errorf("%s over %s: reported %s, then %s; want %s, then %s", c.entry, c.base, got, see(m, "k", now), c.reported, c.after)
		}
	}
}

// TestHandChecked walks a sequence whose every answer was worked out by
// hand: TTLs lapsing under reads and writes, CAS against absent, lapsed and
// live versions, Touch, RemoveIf either way, Range over lapsed keys, and
// Written in a model without a history.
func TestHandChecked(t *testing.T) {
	m := New()
	step := 0
	is := func(got any, want string) {
		t.Helper()
		if step++; fmt.Sprint(got) != want {
			t.Fatalf("step %d: %v, want %s", step, got, want)
		}
	}
	m.PutTTL("a", 1, now, now+10, col(0, "a0"), col(1, "a1"))
	is(see(m, "a", now+9), "a0|a1@1+10")
	is(see(m, "a", now+10), "-")        // lapsed at its expiry
	m.Put("a", 2, now+10, col(1, "c1")) // over the lapsed a: from nothing
	is(see(m, "a", now), "|c1@2")
	is(fmt.Sprint(m.CasPut("b", 0, 3, now, col(0, "b0"))), "3 true") // 0 creates
	is(fmt.Sprint(m.CasPut("b", 2, 4, now, col(0, "x"))), "3 false")
	is(fmt.Sprint(m.CasPut("b", 3, 5, now, col(1, "b1"))), "5 true")
	is(m.Touch("b", 6, now, now+1), "true")
	is(see(m, "b", now), "b0|b1@6+1")
	is(m.Touch("b", 7, now+1, 0), "false") // the dead stay dead
	is(fmt.Sprint(m.CasPut("b", 0, 8, now+1, col(2, "z"))), "8 true")
	is(see(m, "b", now+1), "||z@8")
	m.Put("c", 9, now, col(0, "c0"))
	is(m.RemoveIf("c", func(st State) bool { return st.Version != 9 }), "false")
	is(m.RemoveIf("c", func(st State) bool { return string(st.Cols[0]) == "c0" }), "true")
	is(m.RemoveIf("c", func(State) bool { return true }), "false")
	m.PutTTL("d", 10, now, now+5, col(0, "d0"))
	m.Put("e", 11, now, col(0, "e0"))
	var keys []string
	for _, p := range m.Range("", 3, now+5) {
		keys = append(keys, p.Key)
	}
	is(keys, "[a b e]") // d lapsed; three asked for
	is(m.Range("b", 1, now)[0].Key, "b")
	is(m.Len(), "4") // a, b, d (lapsed) and e
	m.Remove("e", now)
	m.Put("e", 11, now, col(0, "again")) // versions only go up, past a remove too
	is(m.Err() != nil && see(m, "e", now) == "-", "true")
	written := m.Written() // without a history too, removed keys included
	slices.Sort(written)
	is(written, "[a b c d e]")
}

// TestRecoveredRule pins which recovered states are legal.
func TestRecoveredRule(t *testing.T) {
	m := NewHistory()
	m.Put("k", 1, now, col(0, "v1"))
	m.Put("k", 2, now, col(1, "c1"))
	m.Put("r", 4, now, col(0, "r"))
	m.Put("d", 5, now, col(0, "d"))
	m.Ack()
	m.Put("k", 3, now, col(0, "v3"))
	m.Remove("r", now)
	m.Evict("d")
	m.Put("p", 6, now, col(0, "p")) // never acknowledged
	st := func(ver uint64, cols ...string) *State {
		s := &State{Version: ver}
		for _, c := range cols {
			s.Cols = append(s.Cols, []byte(c))
		}
		return s
	}
	for _, c := range []struct {
		key               string
		st                *State
		rollbackOK, legal bool
	}{
		{"k", st(2, "v1", "c1"), false, true}, // the acknowledged state
		{"k", st(3, "v3", "c1"), false, true}, // applied after it
		{"k", st(1, "v1"), false, false},      // below the ack
		{"k", st(1, "v1"), true, true},        // ...accounted
		{"k", st(3, "v1", "c1"), true, false}, // one state's version, another's data
		{"k", st(9, "v9"), true, false},       // no version the model computed
		{"k", nil, false, false},              // lost
		{"k", nil, true, true},                // ...accounted
		{"r", nil, false, true},               // removed after its ack
		{"r", st(4, "r"), false, true},        // the remove not yet durable
		{"d", nil, false, true},               // a clean drop
		{"d", st(5, "d"), false, true},
		{"p", nil, false, true},        // never acknowledged
		{"q", st(7, "q"), true, false}, // never written
		{"q", nil, false, true},
	} {
		if err := m.Recovered(c.key, c.st, c.rollbackOK); (err == nil) != c.legal {
			t.Errorf("Recovered(%q, %v, %v) = %v, want legal %v", c.key, c.st, c.rollbackOK, err, c.legal)
		}
	}
	if !m.Held("k", [][]byte{[]byte("v1"), []byte("c1")}) || m.Held("k", [][]byte{[]byte("v3")}) {
		t.Error("Held does not match the history")
	}
}
