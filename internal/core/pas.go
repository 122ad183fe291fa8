package core

import (
	"math/bits"

	"cohpredict/internal/bitmap"
)

// Two-level adaptive (PAs) entries. Per node, an entry holds a history
// register of depth bits and a pattern table of 2^depth two-bit saturating
// counters; the node is predicted to share when the counter its history
// selects is in the upper half. Counters start at 0 (strongly
// not-sharing): with sharing prevalence an order of magnitude below
// branch-taken rates (paper §5.3), that bias is the sensible default.
//
// The entry is bit-sliced, one bit per node in every word: words [0,depth)
// are the history planes (plane j holds bit j of every register), and
// words depth+2p and depth+2p+1 the low and high counter planes of pattern
// p.

// pasActive returns the nodes whose history register is not zero. At the
// traces' sharing prevalence most are zero, and those nodes all select
// pattern 0, so they are trained and read as one bitmap; only the active
// nodes are visited one by one.
func pasActive(hist []uint64) uint64 {
	var nz uint64
	for _, h := range hist {
		nz |= h
	}
	return nz
}

// pasPattern returns node n's history register.
func pasPattern(hist []uint64, n int) int {
	p := 0
	for j, h := range hist {
		p |= int(h>>uint(n)&1) << uint(j)
	}
	return p
}

// pasPredict returns the nodes whose selected counter is in the upper
// half.
//
//predlint:hotpath
func pasPredict(w []uint64, depth int, all bitmap.Bitmap) bitmap.Bitmap {
	hist := w[:depth]
	active := pasActive(hist)
	pred := (uint64(all) &^ active) & w[depth+1]
	for a := active; a != 0; a &= a - 1 {
		n := bits.TrailingZeros64(a)
		pred |= w[depth+2*pasPattern(hist, n)+1] & (1 << uint(n))
	}
	return bitmap.Bitmap(pred)
}

// pasTrain moves every node's selected counter towards its feedback bit,
// saturating at 0 and 3, then shifts the bit into the node's history
// register.
//
//predlint:hotpath
func pasTrain(w []uint64, depth int, all, feedback bitmap.Bitmap) {
	f := uint64(feedback & all)
	hist := w[:depth]
	active := pasActive(hist)
	pasCount(w[depth:depth+2], uint64(all)&^active, f)
	for a := active; a != 0; a &= a - 1 {
		n := bits.TrailingZeros64(a)
		c := depth + 2*pasPattern(hist, n)
		pasCount(w[c:c+2], 1<<uint(n), f)
	}
	copy(w[1:depth], w[:depth-1])
	w[0] = f
}

// pasCount steps the two-bit counters of the nodes in s, held as a low
// and a high plane, up where f is set and down where it is not.
//
//predlint:hotpath
func pasCount(c []uint64, s, f uint64) {
	lo, hi := c[0], c[1]
	up, down := s&f, s&^f
	// Up steps 00→01→10→11→11; down steps 11→10→01→00→00.
	c[0] = lo&^s | up&(hi|^lo) | down&hi&^lo
	c[1] = hi&^s | up&(hi|lo) | down&hi&lo
}
