package core

import (
	"slices"
	"testing"

	"cohpredict/internal/bitmap"
)

func TestHistoryTable(t *testing.T) {
	tab := NewTable(Scheme{Fn: Inter, Depth: 2, Index: IndexSpec{PCBits: 8}}, m16)
	if !tab.Predict(5).IsEmpty() {
		t.Fatal("cold table predicts sharing")
	}
	tab.Train(5, bitmap.New(1, 2))
	tab.Train(5, bitmap.New(2, 3))
	if got := tab.Predict(5); got != bitmap.New(2) {
		t.Fatalf("Predict = %v", got)
	}
	if !tab.Predict(6).IsEmpty() {
		t.Fatal("keys bleed")
	}
	if tab.Entries() != 1 {
		t.Fatalf("Entries = %d", tab.Entries())
	}
}

func TestPASTable(t *testing.T) {
	tab := NewTable(Scheme{Fn: PAs, Depth: 2, Index: IndexSpec{PCBits: 4}}, m16)
	for i := 0; i < 8; i++ {
		tab.Train(3, bitmap.New(9))
	}
	if got := tab.Predict(3); got != bitmap.New(9) {
		t.Fatalf("PAs table Predict = %v", got)
	}
	if !tab.Predict(4).IsEmpty() {
		t.Fatal("PAs keys bleed")
	}
	if tab.Entries() != 1 {
		t.Fatalf("Entries = %d", tab.Entries())
	}
}

func TestNewTablePanicsOnInvalidScheme(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid scheme accepted")
		}
	}()
	NewTable(Scheme{Fn: Inter, Depth: 9}, m16)
}

func TestLastTableEqualsDepth1(t *testing.T) {
	last := NewTable(Scheme{Fn: Last, Depth: 1}, m16)
	union := NewTable(Scheme{Fn: Union, Depth: 1}, m16)
	inter := NewTable(Scheme{Fn: Inter, Depth: 1}, m16)
	seq := []bitmap.Bitmap{bitmap.New(1), bitmap.New(2, 3), bitmap.Empty, bitmap.New(4)}
	for _, b := range seq {
		last.Train(0, b)
		union.Train(0, b)
		inter.Train(0, b)
		if last.Predict(0) != union.Predict(0) || last.Predict(0) != inter.Predict(0) {
			t.Fatal("depth-1 last/union/inter diverged")
		}
	}
}

// TestChosenKeysDoNotCluster trains, and separately restores, keys a
// client can choose to collide under an unseeded multiplicative hash:
// every key j·hashMul⁻¹ would start its probe at slot 0, and n of them
// would cost O(n²) probes.
func TestChosenKeysDoNotCluster(t *testing.T) {
	inv := uint64(hashMul)
	for i := 0; i < 5; i++ { // each Newton step doubles the correct low bits
		inv *= 2 - hashMul*inv
	}
	const n = 1 << 15
	keys := make([]uint64, 0, n)
	for j := uint64(1); len(keys) < n; j++ {
		if k := j * inv; k < 1<<63 {
			keys = append(keys, k)
		}
	}
	s := Scheme{Fn: Last, Depth: 1, Index: IndexSpec{PCBits: 63}}
	trained, again := NewTable(s, m16), NewTable(s, m16)
	for _, k := range keys {
		trained.Train(k, bitmap.New(1))
		again.Train(k, bitmap.New(1))
	}
	if slices.Equal(trained.slots, again.slots) {
		t.Error("two tables laid the same keys out alike: the hash seed is not per table")
	}
	restored := NewTable(s, m16)
	if err := ImportEntries(AppendEntries(nil, trained), []*FlatTable{restored}, nil); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		tab  *FlatTable
	}{{"trained", trained}, {"restored", restored}} {
		if c.tab.Entries() != n {
			t.Fatalf("%s: Entries = %d, want %d", c.name, c.tab.Entries(), n)
		}
		if p := probeBound(c.tab); p > 32*n {
			t.Errorf("%s: finding the %d keys takes up to %d probes, want at most %d", c.name, n, p, 32*n)
		}
	}
}

// probeBound returns an upper bound on the probes that finding every
// claimed key takes. A probe walks only through the run of occupied slots
// its key sits in, so a run of L slots costs at most 1+2+...+L.
func probeBound(tab *FlatTable) int {
	size := int(tab.size)
	empty := 0 // the scan starts after an empty slot, so no run wraps
	for tab.slots[empty*tab.width] != 0 {
		empty++
	}
	total, run := 0, 0
	for i := 1; i <= size; i++ {
		if tab.slots[(empty+i)%size*tab.width] != 0 {
			run++
			total += run
		} else {
			run = 0
		}
	}
	return total
}
