package bitmap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndHas(t *testing.T) {
	b := New(0, 3, 15)
	for i := 0; i < 16; i++ {
		want := i == 0 || i == 3 || i == 15
		if b.Has(i) != want {
			t.Errorf("Has(%d) = %v, want %v", i, b.Has(i), want)
		}
	}
	if got := b.Count(); got != 3 {
		t.Errorf("Count = %d, want 3", got)
	}
}

func TestEmpty(t *testing.T) {
	if !Empty.IsEmpty() {
		t.Error("Empty.IsEmpty() = false")
	}
	if Empty.Count() != 0 {
		t.Error("Empty.Count() != 0")
	}
	if len(Empty.Nodes()) != 0 {
		t.Error("Empty.Nodes() not empty")
	}
}

func TestSetClear(t *testing.T) {
	var b Bitmap
	b = b.Set(5)
	if !b.Has(5) {
		t.Fatal("Set(5) not visible")
	}
	b = b.Set(5) // idempotent
	if b.Count() != 1 {
		t.Fatalf("double Set changed count: %d", b.Count())
	}
	b = b.Clear(5)
	if b.Has(5) || !b.IsEmpty() {
		t.Fatal("Clear(5) did not clear")
	}
	b = b.Clear(5) // idempotent on absent bit
	if !b.IsEmpty() {
		t.Fatal("Clear on empty changed state")
	}
}

func TestFull(t *testing.T) {
	for _, n := range []int{0, 1, 15, 16, 63, 64} {
		f := Full(n)
		if got := f.Count(); got != n {
			t.Errorf("Full(%d).Count() = %d", n, got)
		}
		if n < MaxNodes && f.Has(n) {
			t.Errorf("Full(%d) has bit %d set", n, n)
		}
	}
}

func TestFullPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Full(65) did not panic")
		}
	}()
	Full(65)
}

func TestSetPanicsOutOfRange(t *testing.T) {
	for _, n := range []int{-1, 64, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set(%d) did not panic", n)
				}
			}()
			Empty.Set(n)
		}()
	}
}

func TestSetOps(t *testing.T) {
	a := New(1, 2, 3)
	b := New(3, 4)
	if got := a.Intersect(b); got != New(3) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Minus(b); got != New(1, 2) {
		t.Errorf("Minus = %v", got)
	}
	if !a.Overlaps(b) {
		t.Error("Overlaps = false")
	}
	if a.Overlaps(New(9)) {
		t.Error("Overlaps disjoint = true")
	}
}

func TestNodesRoundTrip(t *testing.T) {
	in := []int{0, 7, 13, 63}
	b := New(in...)
	got := b.Nodes()
	if len(got) != len(in) {
		t.Fatalf("Nodes() = %v", got)
	}
	for i := range in {
		if got[i] != in[i] {
			t.Errorf("Nodes()[%d] = %d, want %d", i, got[i], in[i])
		}
	}
}

// TestTruncate: masking with Full(n) keeps exactly the sharers below
// node n, the restriction AddBitmaps and the trace fixtures rely on.
func TestTruncate(t *testing.T) {
	b := New(0, 15, 16, 40)
	if got := b & Full(16); got != New(0, 15) {
		t.Errorf("b & Full(16) = %v", got)
	}
}

func TestString(t *testing.T) {
	if got := New(0, 2).String(); got != "0000000000000101" {
		t.Errorf("String = %q", got)
	}
	if got := len(New(40).String()); got != 64 {
		t.Errorf("wide String length = %d", got)
	}
}

// Property: intersection is contained in both operands; De Morgan-ish
// relation |A∪B| = |A| + |B| − |A∩B|.
func TestIntersectProperties(t *testing.T) {
	f := func(a, b uint64) bool {
		x, y := Bitmap(a), Bitmap(b)
		i := x.Intersect(y)
		if i.Minus(x) != Empty || i.Minus(y) != Empty {
			return false
		}
		return (x | y).Count() == x.Count()+y.Count()-i.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Nodes() reconstructs the bitmap exactly.
func TestNodesProperty(t *testing.T) {
	f := func(a uint64) bool {
		b := Bitmap(a)
		return New(b.Nodes()...) == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Set then Clear of a random node restores any bitmap without
// that node.
func TestSetClearProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(a uint64) bool {
		n := rng.Intn(MaxNodes)
		b := Bitmap(a).Clear(n)
		return b.Set(n).Clear(n) == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
