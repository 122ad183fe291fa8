package core

import (
	"testing"

	"cohpredict/internal/bitmap"
)

// stickyEntryTable returns a sticky table whose key 0 the TestStickyEntry
// tests train; with its neighbours untouched, Predict(0) is that entry's
// mask.
func stickyEntryTable() *FlatTable {
	return NewTable(Scheme{Fn: Sticky, Index: IndexSpec{AddrBits: 8}, Depth: 1}, m16)
}

func TestStickyEntryAccumulates(t *testing.T) {
	e := stickyEntryTable()
	e.Train(0, bitmap.New(1))
	e.Train(0, bitmap.New(2))
	// Node 1 missed only one feedback: still sticky.
	if got := e.Predict(0); got != bitmap.New(1, 2) {
		t.Fatalf("mask = %v", got)
	}
	if w := entryWords(t, e, 0); w[1] != 1 {
		t.Fatal("trained flag not set")
	}
}

func TestStickyEntryDropsAfterStrikes(t *testing.T) {
	e := stickyEntryTable()
	e.Train(0, bitmap.New(1))
	for i := 0; i < StickyStrikes; i++ {
		e.Train(0, bitmap.Empty)
	}
	if e.Predict(0).Has(1) {
		t.Fatal("bit survived its strikes")
	}
}

func TestStickyEntryStrikesResetOnRead(t *testing.T) {
	e := stickyEntryTable()
	e.Train(0, bitmap.New(1))
	e.Train(0, bitmap.Empty)  // strike 1
	e.Train(0, bitmap.New(1)) // read again: strikes reset
	e.Train(0, bitmap.Empty)  // strike 1 again
	if !e.Predict(0).Has(1) {
		t.Fatal("bit dropped despite strike reset")
	}
}

func TestStickySchemeValidation(t *testing.T) {
	ok := Scheme{Fn: Sticky, Index: IndexSpec{AddrBits: 8}, Depth: 1}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid sticky rejected: %v", err)
	}
	for _, s := range []Scheme{
		{Fn: Sticky, Index: IndexSpec{AddrBits: 8}, Depth: 2},  // depth must be 1
		{Fn: Sticky, Index: IndexSpec{UsePID: true}, Depth: 1}, // needs addr
	} {
		if err := s.Validate(); err == nil {
			t.Errorf("invalid sticky %+v accepted", s)
		}
	}
}

func TestStickySchemeParse(t *testing.T) {
	s, err := ParseScheme("sticky(dir+add8)1")
	if err != nil {
		t.Fatal(err)
	}
	if s.Fn != Sticky || s.Index.AddrBits != 8 || !s.Index.UseDir {
		t.Fatalf("parsed = %+v", s)
	}
	if got := s.String(); got != "sticky(dir+add8)1" {
		t.Fatalf("String = %q", got)
	}
}

func TestStickyEntryBits(t *testing.T) {
	s := Scheme{Fn: Sticky, Index: IndexSpec{AddrBits: 8}, Depth: 1}
	if got := s.EntryBits(16); got != 48 { // mask 16 + counters 32
		t.Fatalf("entry bits = %d", got)
	}
}

func TestStickyTableSpatialPrediction(t *testing.T) {
	s := Scheme{Fn: Sticky, Index: IndexSpec{AddrBits: 8}, Depth: 1}
	tab := NewTable(s, m16)
	// Train block 10 only.
	key := func(block uint64) uint64 {
		return keyOf(s.Index, 0, 0, 0, block*64, m16)
	}
	tab.Train(key(10), bitmap.New(4))
	// Blocks 9, 10 and 11 all predict {4} via the spatial neighbourhood.
	for _, b := range []uint64{9, 10, 11} {
		if got := tab.Predict(key(b)); got != bitmap.New(4) {
			t.Errorf("block %d predicts %v", b, got)
		}
	}
	// Block 12 is outside the neighbourhood.
	if got := tab.Predict(key(12)); !got.IsEmpty() {
		t.Errorf("block 12 predicts %v", got)
	}
}

func TestStickyTableNeighbourWraparound(t *testing.T) {
	s := Scheme{Fn: Sticky, Index: IndexSpec{AddrBits: 4}, Depth: 1}
	tab := NewTable(s, m16)
	key := func(block uint64) uint64 { return keyOf(s.Index, 0, 0, 0, block*64, m16) }
	tab.Train(key(0), bitmap.New(7))
	// Block 15 is block 0's wrap-around neighbour in a 4-bit addr field.
	if got := tab.Predict(key(15)); got != bitmap.New(7) {
		t.Errorf("wrap neighbour predicts %v", got)
	}
}

func TestStickyTableRespectsHighIndexFields(t *testing.T) {
	// With dir in the index, the spatial neighbourhood must stay within
	// the same directory: addr±1 under a different dir is a different
	// entry set.
	s := Scheme{Fn: Sticky, Index: IndexSpec{UseDir: true, AddrBits: 4}, Depth: 1}
	tab := NewTable(s, m16)
	k := keyOf(s.Index, 0, 0, 3, 5*64, m16)
	tab.Train(k, bitmap.New(2))
	otherDir := keyOf(s.Index, 0, 0, 4, 6*64, m16)
	if got := tab.Predict(otherDir); !got.IsEmpty() {
		t.Errorf("neighbourhood leaked across dir: %v", got)
	}
	sameDir := keyOf(s.Index, 0, 0, 3, 6*64, m16)
	if got := tab.Predict(sameDir); got != bitmap.New(2) {
		t.Errorf("same-dir neighbour predicts %v", got)
	}
}
