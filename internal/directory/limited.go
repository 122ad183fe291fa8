package directory

import (
	"fmt"

	"cohpredict/internal/bitmap"
)

// Limited-pointer directory support (the Dir_i NB family of Agarwal et al.,
// which the paper names as its protocol substrate). A full-map directory
// keeps one presence bit per node; a Dir_i NB directory keeps i pointers
// and, when a block gains more sharers than pointers, falls back to
// broadcast invalidation — every node except the writer receives an
// invalidation message.
//
// Prediction feedback is unaffected: the paper's access-bit mechanism has
// every invalidated node report whether it truly read the block, so the
// directory recovers the exact reader set even after a broadcast. What
// changes is protocol traffic (broadcasts are expensive) — which is exactly
// the cost a data-forwarding protocol must amortise, so the machine
// statistics expose it.

// Mode selects the directory organisation.
type Mode int

const (
	// FullMap keeps a presence bit per node (Dir_N NB).
	FullMap Mode = iota
	// LimitedPointer keeps Pointers sharer pointers and broadcasts on
	// overflow (Dir_i NB).
	LimitedPointer
)

func (m Mode) String() string {
	switch m {
	case FullMap:
		return "full-map"
	case LimitedPointer:
		return "limited-pointer"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// NewLimited returns a Dir_i NB directory with the given pointer count per
// entry. It panics if pointers is not positive or nodes is out of range.
func NewLimited(nodes, pointers int) *Directory {
	d := New(nodes)
	if pointers <= 0 {
		//predlint:ignore panicfree construction-time pointer-count bounds
		panic(fmt.Sprintf("directory: pointer count %d must be positive", pointers))
	}
	d.mode = LimitedPointer
	d.pointers = pointers
	return d
}

// overflowed reports whether the block's sharer set exceeds the pointer
// capacity (always false for full-map directories).
func (d *Directory) overflowed(st *blockState) bool {
	return d.mode == LimitedPointer && st.sharers.Count() > d.pointers
}

// invalidationTargets returns the nodes that receive invalidation messages
// when writer pid claims the block: the precise sharer set when it fits in
// the pointers, every other node after overflow (broadcast).
func (d *Directory) invalidationTargets(st *blockState, pid int) bitmap.Bitmap {
	if d.overflowed(st) {
		d.stats.Broadcasts++
		return bitmap.Full(d.nodes).Clear(pid)
	}
	return st.sharers.Clear(pid)
}
