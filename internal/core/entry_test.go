package core

import (
	"testing"
	"testing/quick"

	"cohpredict/internal/bitmap"
)

func TestHistoryEntryEmpty(t *testing.T) {
	var e HistoryEntry
	if e.Len() != 0 {
		t.Fatal("fresh entry non-empty")
	}
	if !e.Last().IsEmpty() || !e.Union(4).IsEmpty() || !e.Inter(4).IsEmpty() {
		t.Fatal("fresh entry predicts sharing")
	}
}

func TestHistoryEntryLast(t *testing.T) {
	var e HistoryEntry
	e.Push(bitmap.New(1))
	e.Push(bitmap.New(2))
	if got := e.Last(); got != bitmap.New(2) {
		t.Fatalf("Last = %v", got)
	}
}

func TestHistoryEntryWindow(t *testing.T) {
	var e HistoryEntry
	for i := 0; i < 6; i++ {
		e.Push(bitmap.New(i % 8))
	}
	if e.Len() != MaxDepth {
		t.Fatalf("Len = %d", e.Len())
	}
	// Most recent four are {5,4,3,2}.
	for i, want := range []int{5, 4, 3, 2} {
		if got := e.Recent(i); got != bitmap.New(want) {
			t.Errorf("Recent(%d) = %v, want {%d}", i, got, want)
		}
	}
}

func TestRecentOutOfRangePanics(t *testing.T) {
	var e HistoryEntry
	e.Push(bitmap.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("Recent past Len did not panic")
		}
	}()
	e.Recent(1)
}

func TestUnionInterSemantics(t *testing.T) {
	var e HistoryEntry
	e.Push(bitmap.New(1, 2))
	e.Push(bitmap.New(2, 3))
	e.Push(bitmap.New(2, 4))
	if got := e.Union(3); got != bitmap.New(1, 2, 3, 4) {
		t.Errorf("Union(3) = %v", got)
	}
	if got := e.Inter(3); got != bitmap.New(2) {
		t.Errorf("Inter(3) = %v", got)
	}
	// Depth 2 uses only the two most recent.
	if got := e.Union(2); got != bitmap.New(2, 3, 4) {
		t.Errorf("Union(2) = %v", got)
	}
	if got := e.Inter(2); got != bitmap.New(2) {
		t.Errorf("Inter(2) = %v", got)
	}
	// Depth 1 of either function equals Last (the paper's identity).
	if e.Union(1) != e.Last() || e.Inter(1) != e.Last() {
		t.Error("depth-1 union/inter != last")
	}
}

func TestUnderfilledInter(t *testing.T) {
	var e HistoryEntry
	e.Push(bitmap.New(3, 4))
	// Depth 4 with only one stored bitmap intersects just that one.
	if got := e.Inter(4); got != bitmap.New(3, 4) {
		t.Errorf("underfilled Inter = %v", got)
	}
}

func TestPredictDispatch(t *testing.T) {
	var e HistoryEntry
	e.Push(bitmap.New(1))
	e.Push(bitmap.New(1, 2))
	if e.Predict(Last, 1) != e.Last() {
		t.Error("Predict(Last) mismatch")
	}
	if e.Predict(Union, 2) != e.Union(2) {
		t.Error("Predict(Union) mismatch")
	}
	if e.Predict(Inter, 2) != e.Inter(2) {
		t.Error("Predict(Inter) mismatch")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Predict(PAs) on history entry did not panic")
		}
	}()
	e.Predict(PAs, 2)
}

// Property: Inter(d) ⊆ Last ⊆ Union(d) for any push sequence — the
// monotonicity that drives the paper's PVP/sensitivity trade-off.
func TestInterLastUnionOrdering(t *testing.T) {
	f := func(pushes []uint16, depth uint8) bool {
		d := 1 + int(depth%4)
		var e HistoryEntry
		for _, p := range pushes {
			e.Push(bitmap.Bitmap(p))
		}
		if e.Len() == 0 {
			return true
		}
		inter, last, union := e.Inter(d), e.Last(), e.Union(d)
		return inter.Minus(last).IsEmpty() && last.Minus(union).IsEmpty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: deeper intersection predicts no more than shallower; deeper
// union predicts no less (paper §5.4.3).
func TestDepthMonotonicity(t *testing.T) {
	f := func(pushes []uint16) bool {
		var e HistoryEntry
		for _, p := range pushes {
			e.Push(bitmap.Bitmap(p))
		}
		for d := 2; d <= MaxDepth; d++ {
			if !e.Inter(d).Minus(e.Inter(d - 1)).IsEmpty() {
				return false
			}
			if !e.Union(d - 1).Minus(e.Union(d)).IsEmpty() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// pasEntryTable returns a PAs table with a single entry, key 0: the
// TestPASEntry tests train and read that entry.
func pasEntryTable(nodes, depth int) *FlatTable {
	return NewTable(Scheme{Fn: PAs, Depth: depth}, Machine{Nodes: nodes, LineBytes: 64})
}

func TestPASEntryLearnsStablePattern(t *testing.T) {
	e := pasEntryTable(16, 2)
	stable := bitmap.New(3, 7)
	for i := 0; i < 8; i++ {
		e.Train(0, stable)
	}
	if got := e.Predict(0); got != stable {
		t.Fatalf("PAs did not learn stable pattern: %v", got)
	}
}

func TestPASEntryLearnsAlternation(t *testing.T) {
	// Node 5 shares every other time; a depth-2 PAs predictor can learn
	// the alternating pattern exactly (this is what two-level adaptivity
	// buys over last-value).
	e := pasEntryTable(16, 2)
	a, b := bitmap.New(5), bitmap.Empty
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			e.Train(0, a)
		} else {
			e.Train(0, b)
		}
	}
	// After training, prediction must match the phase: history "10"
	// predicts not-share next (b), history "01" predicts share.
	e.Train(0, a) // history for node 5 now ...01? ensure deterministic phase
	predAfterA := e.Predict(0)
	e.Train(0, b)
	predAfterB := e.Predict(0)
	if predAfterA.Has(5) == predAfterB.Has(5) {
		t.Fatalf("PAs failed to track alternation: afterA=%v afterB=%v",
			predAfterA, predAfterB)
	}
}

func TestPASEntryColdPredictsNothing(t *testing.T) {
	e := pasEntryTable(16, 2)
	if !e.Predict(0).IsEmpty() {
		t.Fatal("cold PAs entry predicts sharing")
	}
}

func TestPASEntryForgets(t *testing.T) {
	e := pasEntryTable(16, 1)
	for i := 0; i < 4; i++ {
		e.Train(0, bitmap.New(2))
	}
	if !e.Predict(0).Has(2) {
		t.Fatal("did not learn")
	}
	for i := 0; i < 4; i++ {
		e.Train(0, bitmap.Empty)
	}
	if e.Predict(0).Has(2) {
		t.Fatal("did not forget after sustained negatives")
	}
}

func TestPASEntryCountersSaturate(t *testing.T) {
	e := pasEntryTable(4, 1)
	for i := 0; i < 100; i++ {
		e.Train(0, bitmap.New(0))
	}
	// One negative must not flip a saturated counter.
	e.Train(0, bitmap.Empty)
	// Re-align history to the trained pattern (history is now 0; the
	// counter for pattern "1" is saturated).
	e.Train(0, bitmap.New(0))
	if !e.Predict(0).Has(0) {
		t.Fatal("saturated counter flipped after one negative")
	}
}
