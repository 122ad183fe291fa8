package core

import (
	"cohpredict/internal/bitmap"
)

// HistoryEntry is the state of one last/union/inter predictor entry: the
// MaxDepth most recent feedback bitmaps, newest first, then the count
// stored (≤ MaxDepth). It is exactly the word layout of a FlatTable
// history slot, which the table reads and updates in place. One entry
// serves every depth up to MaxDepth (depth-d prediction uses the d most
// recent bitmaps), which the design-space sweep exploits to evaluate all
// depths in one pass.
type HistoryEntry [historyWords]uint64

// Push records a feedback bitmap, displacing the oldest if full.
func (e *HistoryEntry) Push(b bitmap.Bitmap) {
	copy(e[1:MaxDepth], e[:MaxDepth-1])
	e[0] = uint64(b)
	if e[MaxDepth] < MaxDepth {
		e[MaxDepth]++
	}
}

// Len returns the number of bitmaps stored.
func (e *HistoryEntry) Len() int { return int(e[MaxDepth]) }

// Recent returns the i-th most recent bitmap (0 = newest). It panics if
// i >= Len.
func (e *HistoryEntry) Recent(i int) bitmap.Bitmap {
	if i >= e.Len() {
		//predlint:ignore panicfree documented index-out-of-range contract
		panic("core: history index out of range")
	}
	return bitmap.Bitmap(e[i])
}

// Last predicts the most recent bitmap (empty if none stored).
func (e *HistoryEntry) Last() bitmap.Bitmap { return bitmap.Bitmap(e[0]) }

// Union predicts the OR of the depth most recent bitmaps (fewer if fewer
// are stored; empty if none).
func (e *HistoryEntry) Union(depth int) bitmap.Bitmap {
	var u uint64
	for i := 0; i < depth && i < e.Len(); i++ {
		u |= e[i]
	}
	return bitmap.Bitmap(u)
}

// Inter predicts the AND of the depth most recent bitmaps (fewer if fewer
// are stored; empty if none). An underfilled entry intersects only what it
// holds: the scheme speculates once it has any history, becoming more
// selective as history accumulates.
func (e *HistoryEntry) Inter(depth int) bitmap.Bitmap {
	u := e[0]
	for i := 1; i < depth && i < e.Len(); i++ {
		u &= e[i]
	}
	return bitmap.Bitmap(u)
}

// Predict applies fn at the given depth.
func (e *HistoryEntry) Predict(fn Function, depth int) bitmap.Bitmap {
	switch fn {
	case Last:
		return e.Last()
	case Union:
		return e.Union(depth)
	case Inter:
		return e.Inter(depth)
	default:
		//predlint:ignore panicfree unreachable for valid Function values
		panic("core: HistoryEntry cannot serve " + fn.String())
	}
}
