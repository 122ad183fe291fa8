package eval

import (
	"cohpredict/internal/core"
	"cohpredict/internal/trace"
)

// KeyMemo holds the per-event predictor index keys of one IndexSpec over one
// trace.
type KeyMemo struct {
	// Cur is the current writer's key per event (always populated).
	Cur []uint64
	// Prev is the previous writer's key per event, used by forwarded
	// update. It is nil unless requested, and Prev[i] is meaningful only
	// where Events[i].HasPrev.
	Prev []uint64
}

// MemoKeys computes the key memo for idx over events on machine m. Prev
// keys are computed only when withPrev is set. It is kept only for the
// benchmark's eval.memokeys_ns_per_event (_perfbench/sweep.go): the
// product keys each event as it comes with a core.Keyer.
//
//predlint:ignore testonly only the _perfbench harness calls it; ROADMAP's benchmark item deletes it
func MemoKeys(idx core.IndexSpec, events []trace.Event, m core.Machine, withPrev bool) KeyMemo {
	k := idx.Keyer(m)
	km := KeyMemo{Cur: make([]uint64, len(events))}
	for i := range events {
		ev := &events[i]
		km.Cur[i] = k.Key(ev.PID, ev.PC, ev.Dir, ev.Addr)
	}
	if withPrev {
		km.Prev = make([]uint64, len(events))
		for i := range events {
			ev := &events[i]
			if ev.HasPrev {
				km.Prev[i] = k.Key(ev.PrevPID, ev.PrevPC, ev.Dir, ev.Addr)
			}
		}
	}
	return km
}
