package core

import (
	"testing"
	"testing/quick"
)

func TestEmptyPermutation(t *testing.T) {
	p := emptyPermutation()
	if p.count() != 0 {
		t.Fatalf("count = %d, want 0", p.count())
	}
	checkPermutation(t, p)
}

// checkPermutation fails t unless keyindex is a permutation of 0..width-1
// (the count, four bits, is always in range).
func checkPermutation(t *testing.T, p permutation) {
	t.Helper()
	if err := p.check(); err != nil {
		t.Fatal(err)
	}
}

func TestPermutationInsertRemove(t *testing.T) {
	p := emptyPermutation()
	var slots []int
	// Fill front-insert, so ranks shift every time.
	for i := 0; i < width; i++ {
		var slot int
		p, slot = p.insert(0)
		checkPermutation(t, p)
		slots = append([]int{slot}, slots...)
		if p.count() != i+1 {
			t.Fatalf("count = %d, want %d", p.count(), i+1)
		}
	}
	for rank, slot := range slots {
		if got := p.slot(rank); got != slot {
			t.Fatalf("rank %d slot = %d, want %d", rank, got, slot)
		}
	}
	// Remove from the middle repeatedly.
	for p.count() > 0 {
		rank := p.count() / 2
		slot := p.slot(rank)
		p = p.remove(rank)
		checkPermutation(t, p)
		// Freed slot must be first on the free list.
		if got := p.slot(p.count()); got != slot {
			t.Fatalf("freed slot = %d, want %d", got, slot)
		}
	}
}

func TestPermutationInsertAtEveryRank(t *testing.T) {
	for fill := 0; fill < width; fill++ {
		for rank := 0; rank <= fill; rank++ {
			p := emptyPermutation()
			for i := 0; i < fill; i++ {
				p, _ = p.insert(p.count())
			}
			before := p.indexes()
			q, slot := p.insert(rank)
			checkPermutation(t, q)
			if q.count() != fill+1 {
				t.Fatalf("count = %d, want %d", q.count(), fill+1)
			}
			if q.slot(rank) != slot {
				t.Fatalf("inserted slot not at rank %d", rank)
			}
			// Earlier live entries unchanged; later shifted by one.
			for i := 0; i < rank; i++ {
				if q.slot(i) != before[i] {
					t.Fatalf("rank %d disturbed", i)
				}
			}
			for i := rank; i < fill; i++ {
				if q.slot(i+1) != before[i] {
					t.Fatalf("rank %d not shifted", i)
				}
			}
		}
	}
}

// TestPermutationQuick drives random insert/remove sequences and checks the
// permutation stays a permutation and mirrors a reference slice.
func TestPermutationQuick(t *testing.T) {
	f := func(ops []uint16) bool {
		p := emptyPermutation()
		var ref []int // ref[rank] = slot
		for _, op := range ops {
			if op&1 == 0 && p.count() < width {
				rank := int(op>>1) % (p.count() + 1)
				var slot int
				p, slot = p.insert(rank)
				ref = append(ref[:rank], append([]int{slot}, ref[rank:]...)...)
			} else if p.count() > 0 {
				rank := int(op>>1) % p.count()
				p = p.remove(rank)
				ref = append(ref[:rank], ref[rank+1:]...)
			}
			if p.count() != len(ref) {
				return false
			}
			for i, slot := range ref {
				if p.slot(i) != slot {
					return false
				}
			}
			if p.check() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIdentityPerm(t *testing.T) {
	for c := 0; c <= width; c++ {
		p := identityPerm(c)
		checkPermutation(t, p)
		if p.count() != c {
			t.Fatalf("count = %d, want %d", p.count(), c)
		}
		for i := 0; i < c; i++ {
			if p.slot(i) != i {
				t.Fatalf("slot(%d) = %d, want identity", i, p.slot(i))
			}
		}
	}
}
