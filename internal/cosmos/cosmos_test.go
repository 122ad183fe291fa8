package cosmos

import (
	"testing"

	"cohpredict/internal/trace"
)

// writerTrace builds a single-block trace with the given writer sequence.
func writerTrace(writers ...uint8) *trace.Trace {
	tr := &trace.Trace{Nodes: 16}
	for i, w := range writers {
		e := trace.Event{PID: w, PC: 20, Addr: 0x40}
		if i > 0 {
			e.HasPrev = true
			e.PrevPID = writers[i-1]
		}
		tr.Events = append(tr.Events, e)
	}
	return tr
}

func TestDepth0PredictsSameWriterAgain(t *testing.T) {
	p := New(0)
	p.Observe(0x40, 5)
	if w, ok := p.Predict(0x40); !ok || w != 5 {
		t.Fatalf("Predict = %d,%v", w, ok)
	}
	p.Observe(0x40, 7)
	if w, _ := p.Predict(0x40); w != 7 {
		t.Fatalf("Predict = %d", w)
	}
}

func TestColdBlockUnknown(t *testing.T) {
	p := New(2)
	if _, ok := p.Predict(0x40); ok {
		t.Fatal("cold block predicted")
	}
}

func TestLearnsAlternation(t *testing.T) {
	// Writers alternate 1,2,1,2,... — depth-1 patterns capture it
	// perfectly (after 1 comes 2, after 2 comes 1); depth-0 (same
	// writer) is always wrong.
	seq := make([]uint8, 200)
	for i := range seq {
		seq[i] = uint8(1 + i%2)
	}
	tr := writerTrace(seq...)
	r1 := Evaluate(1, tr)
	if r1.Accuracy() < 0.95 {
		t.Fatalf("depth-1 accuracy = %v on alternation", r1.Accuracy())
	}
	r0 := Evaluate(0, tr)
	if r0.Accuracy() != 0 {
		t.Fatalf("depth-0 accuracy = %v, want 0", r0.Accuracy())
	}
}

func TestLearnsPeriodThree(t *testing.T) {
	// Period-3 migration 1,2,3,1,2,3,... needs only depth 1; verify
	// depth 2 also converges (longer warm-up, same steady state).
	seq := make([]uint8, 300)
	for i := range seq {
		seq[i] = uint8(1 + i%3)
	}
	tr := writerTrace(seq...)
	for _, depth := range []int{1, 2} {
		r := Evaluate(depth, tr)
		if r.Accuracy() < 0.9 {
			t.Errorf("depth-%d accuracy = %v on period-3", depth, r.Accuracy())
		}
	}
}

func TestHysteresisResistsGlitch(t *testing.T) {
	p := New(1)
	for i := 0; i < 10; i++ {
		p.Observe(0x40, 1)
	}
	// History is [1]; pattern says next=1 with saturated confidence.
	p.Observe(0x40, 9) // one glitch: trains pattern[1] toward 9 (conf--)
	p.Observe(0x40, 1) // history [9]→ no, actually history now [9]
	// Back at history [1] after this Observe; the pattern must still
	// predict 1 (the glitch only decremented confidence).
	if w, ok := p.Predict(0x40); !ok || w != 1 {
		t.Fatalf("Predict after glitch = %d,%v", w, ok)
	}
}

func TestCoverageExcludesColdAndUntrained(t *testing.T) {
	tr := writerTrace(1, 2, 3, 4, 5)
	r := Evaluate(2, tr)
	if r.Events != 4 { // 5 events, first is cold
		t.Fatalf("events = %d", r.Events)
	}
	if r.Coverage() >= 1 {
		t.Fatalf("coverage = %v, want < 1 (untrained patterns)", r.Coverage())
	}
}

func TestBlocksIndependent(t *testing.T) {
	p := New(1)
	for i := 0; i < 5; i++ {
		p.Observe(0x40, 1)
		p.Observe(0x80, 2)
	}
	if len(p.blocks) != 2 {
		t.Fatalf("blocks = %d", len(p.blocks))
	}
	if w, _ := p.Predict(0x40); w != 1 {
		t.Fatalf("block 0x40 predicts %d", w)
	}
	if w, _ := p.Predict(0x80); w != 2 {
		t.Fatalf("block 0x80 predicts %d", w)
	}
}

func TestResultZeroSafe(t *testing.T) {
	var r Result
	if r.Accuracy() != 0 || r.Coverage() != 0 {
		t.Fatal("zero result not safe")
	}
}

func TestNewPanicsOnBadDepth(t *testing.T) {
	for _, d := range []int{-1, 9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("depth %d accepted", d)
				}
			}()
			New(d)
		}()
	}
}
