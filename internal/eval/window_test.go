package eval

import (
	"testing"

	"cohpredict/internal/metrics"
)

func TestEvaluateWindowedPartitionsDecisions(t *testing.T) {
	tr := chainTrace(16, 16, 1000, 41)
	s := mustParse(t, "union(dir+add6)4")
	windows := EvaluateWindowed(s, m16, tr, 128)
	// Windows partition the trace: event counts sum to the trace length,
	// and confusion counts sum to the whole-trace evaluation.
	var events int
	var total metrics.Confusion
	for _, w := range windows {
		events += w.Events
		total.TP += w.Confusion.TP
		total.FP += w.Confusion.FP
		total.TN += w.Confusion.TN
		total.FN += w.Confusion.FN
	}
	if events != len(tr.Events) {
		t.Fatalf("window events sum to %d, want %d", events, len(tr.Events))
	}
	whole := Evaluate(s, m16, tr).Confusion
	if total != whole {
		t.Fatalf("windows sum %+v != whole %+v", total, whole)
	}
	// First windows are full-size; the last may be shorter.
	for i, w := range windows[:len(windows)-1] {
		if w.Events != 128 {
			t.Fatalf("window %d has %d events", i, w.Events)
		}
	}
	if got := windows[len(windows)-1].Events; got != len(tr.Events)%128 && len(tr.Events)%128 != 0 {
		t.Fatalf("last window has %d events", got)
	}
}

func TestEvaluateWindowedWarmup(t *testing.T) {
	// On the stable pattern the first window contains the only cold
	// prediction; steady-state windows must be perfect.
	tr := stableTrace(100)
	s := mustParse(t, "last()1")
	windows := EvaluateWindowed(s, m16, tr, 10)
	last := windows[len(windows)-1]
	if last.Confusion.Sensitivity() != 1 || last.Confusion.PVP() != 1 {
		t.Fatalf("steady state not perfect: %+v", last.Confusion)
	}
	if windows[0].Confusion.Sensitivity() >= 1 {
		t.Fatalf("first window unexpectedly perfect (no warm-up seen)")
	}
}

func TestEvaluateWindowedFirstEventIndices(t *testing.T) {
	tr := stableTrace(25)
	windows := EvaluateWindowed(mustParse(t, "last()1"), m16, tr, 10)
	if len(windows) != 3 {
		t.Fatalf("windows = %d", len(windows))
	}
	for i, want := range []int{0, 10, 20} {
		if windows[i].FirstEvent != want {
			t.Errorf("window %d FirstEvent = %d, want %d", i, windows[i].FirstEvent, want)
		}
	}
}

func TestEvaluateWindowedPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("window size 0 accepted")
		}
	}()
	EvaluateWindowed(mustParse(t, "last()1"), m16, stableTrace(5), 0)
}
