// Package model is the sequential reference the store's tests check
// against: an ordered map from key to columns, a version and an expiry. It
// states the paper's two rules once: a column put changes the named
// columns and keeps the rest (§4.7), and recovery (§5) may produce, per
// key, only a state the model computed at or after the key's
// acknowledgement, the absence a remove or a clean drop explains, or —
// where recovery accounted for a lost log — an older state.
//
// Every state is computed from the inputs of the operation that made it:
// the caller passes the version the store drew and the time it read, never
// what the store answered, so a wrong answer cannot become the reference.
// A lapsed value reads as absent, so a write over it starts from nothing.
// The package imports only the standard library, so that the in-package
// tests of value, core and kvstore can all use it.
package model

import (
	"bytes"
	"fmt"
	"slices"
)

// ColPut is one column of a put.
type ColPut struct {
	Col  int
	Data []byte
}

// State is one key's value; Expiry is in unix nanoseconds, 0 for never.
type State struct {
	Cols    [][]byte
	Version uint64
	Expiry  uint64
}

// Live reports whether s still reads as present at now.
func (s State) Live(now uint64) bool { return s.Expiry == 0 || s.Expiry > now }

// Equal compares version, expiry and columns; an empty column equals nil.
func (s State) Equal(o State) bool {
	return s.Version == o.Version && s.Expiry == o.Expiry && slices.EqualFunc(s.Cols, o.Cols, bytes.Equal)
}

func (s State) String() string {
	return fmt.Sprintf("{version=%d expiry=%d cols=%q}", s.Version, s.Expiry, s.Cols)
}

// Apply is what a column put leaves behind: the puts land in order, a
// column past the width grows it with empty columns between, and every
// column no put names survives. cols is not modified.
func Apply(cols [][]byte, puts []ColPut) [][]byte {
	out := slices.Clone(cols)
	for _, p := range puts {
		for p.Col >= len(out) {
			out = append(out, nil)
		}
		out[p.Col] = p.Data
	}
	return out
}

// Pair is one key of a Range.
type Pair struct {
	Key string
	State
}

// step is one entry of a key's history: a state, or a remove.
type step struct {
	State
	tomb bool
}

// entry is one key: its value, lapsed or not, the highest version it ever
// had, and its history.
type entry struct {
	cur     State
	present bool
	last    uint64
	hist    []step
	acked   int  // the last acknowledged step; -1: none
	dropped bool // cleanly dropped since the last write
}

// Model is the reference store. Like any Go value it may be read from
// several goroutines while none writes it.
type Model struct {
	keys    map[string]*entry
	order   []string // the keys holding a value, sorted
	history bool
	err     error
}

// New returns an empty model that keeps only each key's current state.
func New() *Model { return &Model{keys: map[string]*entry{}} }

// NewHistory returns an empty model that keeps every key's history, which
// Ack, Held and Recovered read.
func NewHistory() *Model { return &Model{keys: map[string]*entry{}, history: true} }

// Get returns key's state if it is live at now.
func (m *Model) Get(key string, now uint64) (State, bool) {
	if e := m.keys[key]; e != nil && e.present && e.cur.Live(now) {
		return e.cur, true
	}
	return State{}, false
}

// Err reports the first write the model rejected, which changed nothing:
// one whose version was not above every version its key had. The store's
// clocks never reuse or go back on a key, so a test that sees one has found
// a bug.
func (m *Model) Err() error { return m.err }

// publish makes st key's value, unless it rejects st's version.
func (m *Model) publish(key string, st State) {
	e := m.keys[key]
	if e == nil {
		e = &entry{acked: -1}
		m.keys[key] = e
	}
	if st.Version <= e.last {
		if m.err == nil {
			m.err = fmt.Errorf("model: version %d of %q is not above its last version %d", st.Version, key, e.last)
		}
		return
	}
	if !e.present {
		i, _ := slices.BinarySearch(m.order, key)
		m.order = slices.Insert(m.order, i, key)
	}
	e.cur, e.present, e.last, e.dropped = st, true, st.Version, false
	if m.history {
		e.hist = append(e.hist, step{State: st})
	}
}

// unlink takes key's value out, with a remove in its history or, if tomb
// is false, as a clean drop. It reports whether a value was there.
func (m *Model) unlink(key string, tomb bool) bool {
	e := m.keys[key]
	if e == nil || !e.present {
		return false
	}
	i, _ := slices.BinarySearch(m.order, key)
	m.order = slices.Delete(m.order, i, i+1)
	e.cur, e.present, e.dropped = State{}, false, !tomb
	if tomb && m.history {
		e.hist = append(e.hist, step{tomb: true})
	}
	return true
}

// Put applies puts to key's live value at now, under version ver and with
// no expiry.
func (m *Model) Put(key string, ver, now uint64, puts ...ColPut) {
	m.PutTTL(key, ver, now, 0, puts...)
}

// PutTTL is Put with an expiry.
func (m *Model) PutTTL(key string, ver, now, expiry uint64, puts ...ColPut) {
	b, _ := m.Get(key, now)
	m.publish(key, State{Apply(b.Cols, puts), ver, expiry})
}

// Touch gives key's live value a new version and expiry. It reports false,
// changing nothing, if there is none: touching the dead does not revive them.
func (m *Model) Touch(key string, ver, now, expiry uint64) bool {
	b, ok := m.Get(key, now)
	if ok {
		m.publish(key, State{b.Cols, ver, expiry})
	}
	return ok
}

// CasPut is Put if key's live version at now is expect (0: none). It
// returns ver and true, or the live version and false, changing nothing.
func (m *Model) CasPut(key string, expect, ver, now uint64, puts ...ColPut) (uint64, bool) {
	if b, _ := m.Get(key, now); b.Version != expect {
		return b.Version, false
	}
	m.Put(key, ver, now, puts...)
	return ver, true
}

// Install makes cols key's whole value if none is live at now — a backend
// load, which a racing put wins. It reports whether it installed.
func (m *Model) Install(key string, ver, now, expiry uint64, cols ...[]byte) bool {
	if _, ok := m.Get(key, now); ok {
		return false
	}
	puts := make([]ColPut, len(cols))
	for i, c := range cols {
		puts[i] = ColPut{i, c}
	}
	m.PutTTL(key, ver, now, expiry, puts...)
	return true
}

// Remove takes key's value out, lapsed or not, and reports whether it was
// live.
func (m *Model) Remove(key string, now uint64) bool {
	_, live := m.Get(key, now)
	m.unlink(key, true)
	return live
}

// RemoveIf takes key's value out, lapsed or not, if pred accepts it, and
// reports whether it did.
func (m *Model) RemoveIf(key string, pred func(State) bool) bool {
	e := m.keys[key]
	return e != nil && e.present && pred(e.cur) && m.unlink(key, true)
}

// Evict drops key's value, lapsed or not, without a remove: a crash may
// bring back any state the key had. It reports whether a value was there.
// Evictions are not predictable; a test calls Evict for each it observes.
func (m *Model) Evict(key string) bool { return m.unlink(key, false) }

// Sweep evicts every value lapsed at horizon and returns how many.
func (m *Model) Sweep(horizon uint64) (n int) {
	for k, e := range m.keys {
		if e.present && !e.cur.Live(horizon) && m.Evict(k) {
			n++
		}
	}
	return n
}

// Len is the number of values held, lapsed ones included.
func (m *Model) Len() int { return len(m.order) }

// Range returns up to n keys from start on that are live at now, in order.
func (m *Model) Range(start string, n int, now uint64) []Pair {
	i, _ := slices.BinarySearch(m.order, start)
	var out []Pair
	for _, k := range m.order[i:] {
		if len(out) == n {
			break
		}
		if st := m.keys[k].cur; st.Live(now) {
			out = append(out, Pair{k, st})
		}
	}
	return out
}

// Ack acknowledges every state so far: no recovery may come back below it.
func (m *Model) Ack() {
	for _, e := range m.keys {
		e.acked = len(e.hist) - 1
	}
}

// Written lists, in no order, every key the model ever gave a value.
func (m *Model) Written() []string {
	var keys []string
	for k, e := range m.keys {
		if e.last > 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

// Held reports whether some state of key had exactly cols.
func (m *Model) Held(key string, cols [][]byte) bool {
	e := m.keys[key]
	return e != nil && slices.ContainsFunc(e.hist, func(s step) bool {
		return !s.tomb && slices.EqualFunc(s.Cols, cols, bytes.Equal)
	})
}

// Recovered judges st, key's state after a crash and recovery (nil:
// absent). Legal are a state the model computed for key, at or after its
// acknowledged one — never one state's version with another's columns —
// and absence of a key never acknowledged, or removed or dropped since; with
// rollbackOK, as where recovery accounted for a lost log, also an older
// state and absence.
func (m *Model) Recovered(key string, st *State, rollbackOK bool) error {
	e := m.keys[key]
	switch {
	case (e == nil || len(e.hist) == 0) && st != nil:
		return fmt.Errorf("key %q recovered %v, and was never written", key, *st)
	case e == nil || len(e.hist) == 0:
		return nil
	case st == nil:
		if e.acked < 0 || e.dropped || rollbackOK || slices.ContainsFunc(e.hist[e.acked:], func(s step) bool { return s.tomb }) {
			return nil
		}
		return fmt.Errorf("acknowledged key %q lost (acknowledged state %d of %d)", key, e.acked, len(e.hist))
	}
	i := slices.IndexFunc(e.hist, func(s step) bool { return !s.tomb && s.Version == st.Version })
	switch {
	case i < 0:
		return fmt.Errorf("key %q recovered %v, at no version the model computed", key, *st)
	case !e.hist[i].Equal(*st):
		return fmt.Errorf("key %q recovered %v, the model computed %v at that version (mixed states)", key, *st, e.hist[i].State)
	case i < e.acked && !rollbackOK:
		return fmt.Errorf("key %q recovered state %d, older than acknowledged state %d (lost ack)", key, i, e.acked)
	}
	return nil
}
