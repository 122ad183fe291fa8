// Custom predictor: extend the taxonomy with a prediction function the
// paper names but does not simulate — Kaxiras and Goodman's *overlap-last*
// scheme ("predicts the last sharing bitmap only if the current and last
// bitmap overlap", paper §3.5, left out "for space reasons").
//
// The example shows the library's extension seam: any type implementing
// core.Table can be driven by the evaluation machinery. Overlap-last keeps
// a two-deep history and speculates only when consecutive reader sets
// intersect — a cheap confidence filter between last (always speculate)
// and inter-2 (speculate on the stable subset).
//
//	go run ./examples/custom_predictor
package main

import (
	"fmt"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/core"
	"cohpredict/internal/machine"
	"cohpredict/internal/metrics"
	"cohpredict/internal/trace"
	"cohpredict/internal/workload"
)

// overlapLastTable implements core.Table with the overlap-last function.
type overlapLastTable struct {
	entries map[uint64]*core.HistoryEntry
}

func newOverlapLast() *overlapLastTable {
	return &overlapLastTable{entries: make(map[uint64]*core.HistoryEntry)}
}

// Predict returns the last bitmap only when the last two observed bitmaps
// overlap; otherwise it stays silent.
func (t *overlapLastTable) Predict(key uint64) bitmap.Bitmap {
	e, ok := t.entries[key]
	if !ok || e.Len() < 2 {
		return bitmap.Empty
	}
	last, prev := e.Recent(0), e.Recent(1)
	if !last.Overlaps(prev) {
		return bitmap.Empty
	}
	return last
}

func (t *overlapLastTable) Train(key uint64, feedback bitmap.Bitmap) {
	e, ok := t.entries[key]
	if !ok {
		e = &core.HistoryEntry{}
		t.entries[key] = e
	}
	e.Push(feedback)
}

func (t *overlapLastTable) Entries() int { return len(t.entries) }

// evaluate drives any core.Table over a trace with direct update (the
// same stepping the evaluation engine performs for built-in schemes).
func evaluate(tab core.Table, idx core.IndexSpec, cm core.Machine, tr *trace.Trace) metrics.Confusion {
	var conf metrics.Confusion
	keyer := idx.Keyer(cm)
	for _, ev := range tr.Events {
		key := keyer.Key(ev.PID, ev.PC, ev.Dir, ev.Addr)
		if core.Direct.Schedule(keyer.ReadsWriter(), ev.HasPrev, ev.InvReaders) == core.TrainCurrent {
			tab.Train(key, ev.InvReaders)
		}
		pred := tab.Predict(key).Clear(int(ev.PID))
		conf.AddBitmaps(pred, ev.FutureReaders, cm.Nodes)
	}
	return conf
}

func main() {
	cm := core.Machine{Nodes: 16, LineBytes: 64}
	idx := core.IndexSpec{UsePID: true, PCBits: 8}

	fmt.Println("overlap-last(pid+pc8) vs the built-in functions, per benchmark:")
	fmt.Printf("%-10s %18s %18s %18s\n", "benchmark",
		"overlap-last", "last", "inter-2")
	fmt.Printf("%-10s %8s %9s %8s %9s %8s %9s\n", "",
		"sens", "pvp", "sens", "pvp", "sens", "pvp")
	for _, b := range workload.All(workload.ScaleTest) {
		m := machine.New(machine.DefaultConfig())
		b.Run(m, 16, 5)
		tr := m.Finish()

		overlap := evaluate(newOverlapLast(), idx, cm, tr)
		last := evaluate(core.NewTable(core.Scheme{Fn: core.Last, Index: idx, Depth: 1}, cm), idx, cm, tr)
		inter := evaluate(core.NewTable(core.Scheme{Fn: core.Inter, Index: idx, Depth: 2}, cm), idx, cm, tr)

		fmt.Printf("%-10s %8.3f %9.3f %8.3f %9.3f %8.3f %9.3f\n", b.Name(),
			overlap.Sensitivity(), overlap.PVP(),
			last.Sensitivity(), last.PVP(),
			inter.Sensitivity(), inter.PVP())
	}
	fmt.Println("\noverlap-last trades a little of last's sensitivity for PVP,")
	fmt.Println("landing between last and intersection — the confidence-filter")
	fmt.Println("behaviour Kaxiras & Goodman designed it for.")
}
