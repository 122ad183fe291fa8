package core

import "cohpredict/internal/bitmap"

// Training is the update mechanism's decision for one event (paper §3.4):
// which entry trains, with which feedback, and whether before or after the
// event's prediction is read. UpdateMode.Schedule makes it; eval.Apply and
// the design-space sweep act on it.
type Training uint8

const (
	NoTraining    Training = iota // the event carries no feedback
	TrainCurrent                  // train the current writer's entry with the invalidated readers, then predict
	TrainPrevious                 // train the previous writer's entry with the invalidated readers, then predict
	TrainAfter                    // predict, then train the current writer's entry with the future readers (ordered)
)

// Schedule returns the training for one event. readsWriter reports
// whether the index reads the writer's pid or pc (Keyer.ReadsWriter),
// hasPrev whether the block records a previous writer, and inv the
// readers the event invalidated.
//
//predlint:hotpath
func (u UpdateMode) Schedule(readsWriter, hasPrev bool, inv bitmap.Bitmap) Training {
	switch u {
	case Direct:
		// Feedback exists only when the closing epoch carried
		// information (an invalidation actually happened).
		if hasPrev || !inv.IsEmpty() {
			return TrainCurrent
		}
	case Forwarded:
		// The previous writer's key differs from the current one only
		// when the index reads pid or pc. A pure dir/addr index can
		// always route the feedback, and is then exactly direct update
		// (the paper's §3.4 observation).
		switch {
		case hasPrev && readsWriter:
			return TrainPrevious
		case hasPrev, !readsWriter && !inv.IsEmpty():
			return TrainCurrent
		}
	case Ordered:
		return TrainAfter
	}
	return NoTraining
}
