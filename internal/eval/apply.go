package eval

import (
	"cohpredict/internal/bitmap"
	"cohpredict/internal/core"
	"cohpredict/internal/trace"
)

// Apply processes one event against table t under update mode u with the
// compiled index k: it trains per the update mechanism's exact timing
// (core.UpdateMode.Schedule, paper §3.4), reads the prediction, and masks
// the writer (a node never forwards to itself). Engine.Step delegates
// here, and each serving session calls it directly against its one
// table, so served predictions are byte-identical to offline evaluation
// by construction.
//
// Apply touches only the entries for the event's current key and (under
// forwarded update) previous-writer key.
//
//predlint:hotpath
func Apply(u core.UpdateMode, k *core.Keyer, t *core.FlatTable, ev *trace.Event) bitmap.Bitmap {
	cur := k.Key(ev.PID, ev.PC, ev.Dir, ev.Addr)
	training := u.Schedule(k.ReadsWriter(), ev.HasPrev, ev.InvReaders)
	switch training {
	case core.TrainCurrent:
		t.Train(cur, ev.InvReaders)
	case core.TrainPrevious:
		t.Train(k.Key(ev.PrevPID, ev.PrevPC, ev.Dir, ev.Addr), ev.InvReaders)
	case core.NoTraining, core.TrainAfter:
	}
	pred := t.Predict(cur)
	if training == core.TrainAfter {
		t.Train(cur, ev.FutureReaders)
	}
	// A node never forwards to itself.
	return pred.Clear(int(ev.PID))
}
