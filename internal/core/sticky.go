package core

import (
	"cohpredict/internal/bitmap"
)

// Sticky-spatial prediction. The paper's footnote 2 excludes Bilir et
// al.'s Sticky-Spatial scheme from its simulations "but our work can be
// expanded to include such schemes" — this file is that expansion. The
// scheme differs from the history functions in two ways:
//
//   - Sticky state: each entry keeps a mask that accumulates observed
//     readers; a reader bit is only dropped after it misses StickyStrikes
//     consecutive feedbacks (a per-node strike counter), so occasional
//     pattern wobble does not evict established consumers.
//
//   - Spatial prediction: the prediction for a block ORs the masks of the
//     spatially adjacent blocks (addr ± 1 within the index's addr field),
//     exploiting the spatial regularity of scientific codes: a block's
//     readers usually also read its neighbours.
//
// Sticky schemes print as sticky(index)1; the index must include addr bits
// (the spatial neighbourhood is defined by the addr field).

// StickyStrikes is the number of consecutive no-read feedbacks after which
// a sticky reader bit is dropped.
const StickyStrikes = 2

// A sticky entry keeps its strike counters as one bitmap plane, one bit
// per node, which is exact only while a reader drops at its second strike:
// this constant overflows, failing to compile, if StickyStrikes moves.
const _ uint = -(StickyStrikes - 2) * (StickyStrikes - 2)

// Sticky entry words in a FlatTable slot: the reader mask, the strike
// plane (a set bit is a node with one strike), and the trained flag.
const (
	stickyMask = iota
	stickyStrike
	stickyTrained
	stickyWords
)

// stickyTrain folds a feedback bitmap into a sticky entry: observed
// readers join immediately and lose their strike; readers in the mask
// that missed take a strike, and are dropped at their second. Nodes in
// neither keep their state (a strike outside the mask, which only a
// restore can produce, stays until the node next reads).
//
//predlint:hotpath
func stickyTrain(w []uint64, all, feedback bitmap.Bitmap) {
	f := uint64(feedback & all)
	mask, strike := w[stickyMask], w[stickyStrike]
	miss := mask &^ f
	w[stickyMask] = (mask | f) &^ (miss & strike)
	w[stickyStrike] = strike&^(f|miss) | miss&^strike
	w[stickyTrained] = 1
}

// neighbours returns the keys of the spatially adjacent blocks (addr ± 1
// within the addr field, wrapping at the field boundary). Because the addr
// field occupies the low bits of every key (see Keyer.Key), they are
// computable without the original address.
func (t *FlatTable) neighbours(key uint64) (down, up uint64) {
	low := lowBits(t.addrBits)
	a := key & low
	high := key &^ low
	return high | ((a - 1) & low), high | ((a + 1) & low)
}
