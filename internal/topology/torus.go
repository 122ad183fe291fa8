// Package topology models the interconnection network of the simulated
// machine: a 2-D torus with dimension-ordered (XY) routing, matching the
// paper's "16-node systems with a fast 2-D torus interconnect" (§5.1).
//
// Prediction accuracy does not depend on network timing, but the torus is
// used by the data-forwarding extension (internal/forward) to cost messages
// and estimate latency saved by successful forwards, and by the machine
// simulator to account protocol traffic in hop-weighted terms.
package topology

import "fmt"

// Torus is a W×H two-dimensional torus. Node i sits at (i%W, i/W).
type Torus struct {
	W, H int
}

// NewTorus returns a torus with the given dimensions. It panics if either
// dimension is not positive.
func NewTorus(w, h int) *Torus {
	if w <= 0 || h <= 0 {
		//predlint:ignore panicfree construction-time dimension validation
		panic(fmt.Sprintf("topology: invalid torus dimensions %dx%d", w, h))
	}
	return &Torus{W: w, H: h}
}

// Square returns the smallest square-ish torus with at least n nodes whose
// node count is exactly n when n is a product of two near-equal factors
// (16 → 4×4). It panics if n is not expressible as w*h with |w-h| minimal
// and w*h == n.
func Square(n int) *Torus {
	best := 0
	for w := 1; w*w <= n; w++ {
		if n%w == 0 {
			best = w
		}
	}
	if best == 0 {
		//predlint:ignore panicfree unreachable: every n >= 1 factors
		panic(fmt.Sprintf("topology: cannot factor %d nodes into a torus", n))
	}
	return NewTorus(n/best, best)
}

// Nodes returns the number of nodes in the torus.
func (t *Torus) Nodes() int { return t.W * t.H }

// Coord returns the (x, y) coordinates of a node.
func (t *Torus) Coord(node int) (x, y int) {
	t.check(node)
	return node % t.W, node / t.W
}

func (t *Torus) check(node int) {
	if node < 0 || node >= t.Nodes() {
		//predlint:ignore panicfree node bounds misuse guard
		panic(fmt.Sprintf("topology: node %d out of range [0,%d)", node, t.Nodes()))
	}
}

// wrapDist returns the shortest distance between a and b on a ring of size n.
func wrapDist(a, b, n int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if n-d < d {
		d = n - d
	}
	return d
}

// Hops returns the minimal hop count between two nodes (wrap-around
// Manhattan distance), which XY routing achieves.
func (t *Torus) Hops(a, b int) int {
	ax, ay := t.Coord(a)
	bx, by := t.Coord(b)
	return wrapDist(ax, bx, t.W) + wrapDist(ay, by, t.H)
}

// TrafficMeter accumulates hop-weighted message counts, used by the
// forwarding extension to compare network load of prediction schemes.
type TrafficMeter struct {
	t        *Torus
	Messages uint64
	HopFlits uint64
}

// NewTrafficMeter returns a meter for the given torus.
func NewTrafficMeter(t *Torus) *TrafficMeter { return &TrafficMeter{t: t} }

// Send accounts one message from src to dst.
func (m *TrafficMeter) Send(src, dst int) {
	m.Messages++
	m.HopFlits += uint64(m.t.Hops(src, dst))
}
