package topology

import (
	"testing"
	"testing/quick"
)

func TestSquare(t *testing.T) {
	tr := Square(16)
	if tr.W != 4 || tr.H != 4 {
		t.Fatalf("Square(16) = %dx%d", tr.W, tr.H)
	}
	if tr.Nodes() != 16 {
		t.Fatalf("Nodes = %d", tr.Nodes())
	}
	tr = Square(8)
	if tr.Nodes() != 8 {
		t.Fatalf("Square(8).Nodes = %d", tr.Nodes())
	}
	tr = Square(7) // prime: 7x1
	if tr.W != 7 || tr.H != 1 {
		t.Fatalf("Square(7) = %dx%d", tr.W, tr.H)
	}
}

func TestCoordNodeInverse(t *testing.T) {
	tr := NewTorus(4, 4)
	for n := 0; n < tr.Nodes(); n++ {
		x, y := tr.Coord(n)
		if x < 0 || x >= tr.W || y < 0 || y >= tr.H || y*tr.W+x != n {
			t.Errorf("Coord(%d) = (%d,%d), not its row-major position", n, x, y)
		}
	}
}

func TestHopsKnownValues(t *testing.T) {
	tr := NewTorus(4, 4)
	cases := []struct{ a, b, want int }{
		{0, 0, 0},
		{0, 1, 1},
		{0, 3, 1},  // wrap in x
		{0, 12, 1}, // wrap in y
		{0, 5, 2},
		{0, 10, 4}, // (2,2): 2+2
		{5, 10, 2},
	}
	for _, c := range cases {
		if got := tr.Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestDiameter: the longest hop distance on a 4x4 torus is the sum of
// the two half-ring lengths, 2 + 2.
func TestDiameter(t *testing.T) {
	tr := NewTorus(4, 4)
	max := 0
	for a := 0; a < tr.Nodes(); a++ {
		for b := 0; b < tr.Nodes(); b++ {
			if h := tr.Hops(a, b); h > max {
				max = h
			}
		}
	}
	if max != 4 {
		t.Errorf("measured max %d, want diameter 4", max)
	}
}

// Property: hop distance is a metric — symmetric, zero iff equal, triangle
// inequality.
func TestHopsMetricProperty(t *testing.T) {
	tr := NewTorus(8, 4)
	n := tr.Nodes()
	f := func(a, b, c uint8) bool {
		x, y, z := int(a)%n, int(b)%n, int(c)%n
		if tr.Hops(x, y) != tr.Hops(y, x) {
			return false
		}
		if (tr.Hops(x, y) == 0) != (x == y) {
			return false
		}
		return tr.Hops(x, z) <= tr.Hops(x, y)+tr.Hops(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAvgHops(t *testing.T) {
	tr := NewTorus(4, 4)
	total := 0
	for b := 0; b < tr.Nodes(); b++ {
		total += tr.Hops(0, b)
	}
	// For a 4x4 torus: per-ring distances from 0: {0,1,2,1} → mean 1.
	// 2-D mean = 2 (sum of independent ring means).
	if got := float64(total) / float64(tr.Nodes()); got != 2 {
		t.Errorf("mean hops from node 0 = %v, want 2", got)
	}
}

func TestTrafficMeter(t *testing.T) {
	tr := NewTorus(4, 4)
	m := NewTrafficMeter(tr)
	m.Send(0, 5)
	for _, d := range []int{1, 2, 3} {
		m.Send(0, d)
	}
	if m.Messages != 4 {
		t.Errorf("Messages = %d", m.Messages)
	}
	want := uint64(tr.Hops(0, 5) + tr.Hops(0, 1) + tr.Hops(0, 2) + tr.Hops(0, 3))
	if m.HopFlits != want {
		t.Errorf("HopFlits = %d, want %d", m.HopFlits, want)
	}
}

func TestNewTorusPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTorus(0,4) did not panic")
		}
	}()
	NewTorus(0, 4)
}
