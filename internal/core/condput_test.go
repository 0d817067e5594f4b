package core

import (
	"fmt"
	"testing"

	"repro/internal/value"
)

// Update returning nil must leave the tree untouched: no phantom insert for
// absent keys, no replacement for present ones.
func TestApplyDecline(t *testing.T) {
	tr := New()

	// Decline on an absent key: nothing is inserted.
	old, stored := tr.Update([]byte("missing"), func(old *value.Value) *value.Value {
		if old != nil {
			t.Fatalf("expected nil old for absent key")
		}
		return nil
	})
	if old != nil || stored != nil {
		t.Fatalf("decline returned old=%v stored=%v", old, stored)
	}
	if tr.Len() != 0 {
		t.Fatalf("decline inserted a key: len=%d", tr.Len())
	}
	if _, ok := tr.Get([]byte("missing")); ok {
		t.Fatal("declined key is visible")
	}

	// Accept on an absent key: ordinary insert.
	want := value.New([]byte("v1"))
	_, stored = tr.Update([]byte("k"), func(*value.Value) *value.Value { return want })
	if stored != want || tr.Len() != 1 {
		t.Fatalf("accepting apply did not insert (stored=%v len=%d)", stored, tr.Len())
	}

	// Decline on a present key: the value survives and old is reported.
	old, stored = tr.Update([]byte("k"), func(old *value.Value) *value.Value {
		if old != want {
			t.Fatalf("apply saw old=%v", old)
		}
		return nil
	})
	if old != want || stored != nil {
		t.Fatalf("decline on present key: old=%v stored=%v", old, stored)
	}
	if got, ok := tr.Get([]byte("k")); !ok || got != want {
		t.Fatalf("value replaced by declined apply: %v %v", got, ok)
	}
}

// Declines work with suffix keys (and their layer push-downs) too, since
// CAS requests may carry keys of any length.
func TestApplyDeclineLongKeys(t *testing.T) {
	tr := New()
	long := []byte("a-key-longer-than-eight-bytes")
	v := value.New([]byte("x"))
	tr.Put(long, v)
	old, stored := tr.Update(long, func(*value.Value) *value.Value { return nil })
	if old != v || stored != nil {
		t.Fatalf("decline on suffix key: old=%v stored=%v", old, stored)
	}
	// Declining a different long key that shares the 8-byte prefix must not
	// create a layer or insert anything.
	other := []byte("a-key-longer-with-other-tail")
	if _, stored := tr.Update(other, func(*value.Value) *value.Value { return nil }); stored != nil {
		t.Fatalf("decline stored %v", stored)
	}
	if _, ok := tr.Get(other); ok {
		t.Fatal("declined long key visible")
	}
	if tr.Len() != 1 {
		t.Fatalf("len=%d after declines", tr.Len())
	}
}

// The batched path honors the same contract: apply returning nil skips the
// key, whether it resolves through a fresh descent or an extended run.
func TestPutBatchIntoDecline(t *testing.T) {
	tr := New()
	var keys [][]byte
	for i := 0; i < 64; i++ {
		keys = append(keys, []byte(fmt.Sprintf("key%04d", i)))
	}
	// Preload the even keys.
	for i := 0; i < 64; i += 2 {
		tr.Put(keys[i], value.New(keys[i]))
	}
	// Batch over all keys, declining every odd (absent) key and accepting
	// every even one with a replacement value.
	applied := make([]bool, 64)
	tr.PutBatchInto(keys, new(BatchScratch), func(i int, old *value.Value) *value.Value {
		if i%2 == 1 {
			if old != nil {
				t.Errorf("key %d: unexpected old value", i)
			}
			return nil
		}
		if old == nil {
			t.Errorf("key %d: preloaded value missing", i)
		}
		applied[i] = true
		return value.New([]byte("updated"))
	})
	if tr.Len() != 32 {
		t.Fatalf("declined keys were inserted: len=%d", tr.Len())
	}
	for i := 0; i < 64; i++ {
		v, ok := tr.Get(keys[i])
		if i%2 == 1 {
			if ok {
				t.Fatalf("declined key %d visible", i)
			}
			continue
		}
		if !applied[i] || !ok || string(v.Col(0)) != "updated" {
			t.Fatalf("key %d not updated (applied=%v ok=%v)", i, applied[i], ok)
		}
	}
}
