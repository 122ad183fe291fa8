package workload

import (
	"testing"

	"cohpredict/internal/machine"
	"cohpredict/internal/sched"
	"cohpredict/internal/trace"
)

// runTrace simulates a benchmark at test scale and returns its trace.
func runTrace(t *testing.T, b Benchmark) *trace.Trace {
	t.Helper()
	m := machine.New(machine.DefaultConfig())
	b.Run(m, 16, 1)
	return m.Finish()
}

// shareOfEvents returns the fraction of events whose future-reader count
// satisfies pred.
func shareOfEvents(tr *trace.Trace, pred func(int) bool) float64 {
	if len(tr.Events) == 0 {
		return 0
	}
	n := 0
	for _, e := range tr.Events {
		if pred(e.FutureReaders.Count()) {
			n++
		}
	}
	return float64(n) / float64(len(tr.Events))
}

// TestEM3DProducerConsumerStructure: em3d is static producer-consumer —
// each value has one writer, and the same remote consumers re-read it
// every iteration, so a large share of events must repeat their previous
// reader set exactly.
func TestEM3DProducerConsumerStructure(t *testing.T) {
	tr := runTrace(t, NewEM3D(ScaleTest))
	repeats, candidates := 0, 0
	for _, e := range tr.Events {
		if !e.HasPrev || e.InvReaders.IsEmpty() {
			continue
		}
		candidates++
		if e.FutureReaders == e.InvReaders {
			repeats++
		}
	}
	if candidates == 0 {
		t.Fatal("no warm events")
	}
	if frac := float64(repeats) / float64(candidates); frac < 0.5 {
		t.Errorf("only %.2f of em3d events repeat their reader set", frac)
	}
	// Every data value has a single writer: on data stores (user PCs,
	// excluding lock/barrier traffic) the previous writer is almost
	// always the current writer.
	same, data := 0, 0
	for _, e := range tr.Events {
		if !e.HasPrev || e.PC < sched.UserPCBase {
			continue
		}
		data++
		if e.PrevPID == e.PID {
			same++
		}
	}
	if frac := float64(same) / float64(data); frac < 0.6 {
		t.Errorf("em3d same-writer fraction %.2f, want most", frac)
	}
}

// TestMP3DMigratoryStructure: mp3d is the canonical migratory workload —
// cell blocks move between writers, so most events have a *different*
// previous writer and a single-reader future set.
func TestMP3DMigratoryStructure(t *testing.T) {
	tr := runTrace(t, NewMP3D(ScaleTest))
	diff, warm := 0, 0
	for _, e := range tr.Events {
		if !e.HasPrev {
			continue
		}
		warm++
		if e.PrevPID != e.PID {
			diff++
		}
	}
	if frac := float64(diff) / float64(warm); frac < 0.5 {
		t.Errorf("mp3d different-writer fraction %.2f, want mostly migratory", frac)
	}
	if frac := shareOfEvents(tr, func(n int) bool { return n <= 2 }); frac < 0.8 {
		t.Errorf("mp3d small-reader-set fraction %.2f", frac)
	}
}

// TestOceanNearestNeighbourStructure: ocean's sharing is boundary-row
// communication between adjacent partitions — reader sets of size one
// dominate, and wide sharing is essentially absent outside the barrier.
func TestOceanNearestNeighbourStructure(t *testing.T) {
	tr := runTrace(t, NewOcean(ScaleTest))
	if frac := shareOfEvents(tr, func(n int) bool { return n <= 2 }); frac < 0.9 {
		t.Errorf("ocean non-neighbour sharing too common: %.2f", frac)
	}
}

// TestBarnesWideSharingExists: barnes' upper tree cells are read by many
// nodes — the trace must contain wide reader sets (≥ 8 nodes), which is
// why barnes tops the paper's prevalence table.
func TestBarnesWideSharingExists(t *testing.T) {
	tr := runTrace(t, NewBarnes(ScaleTest))
	wide := 0
	for _, e := range tr.Events {
		if e.FutureReaders.Count() >= 8 {
			wide++
		}
	}
	if wide == 0 {
		t.Fatal("barnes has no wide sharing")
	}
}

// TestGaussPivotBroadcast: gauss publishes a multiplier column each step
// that every processor reads — the trace must contain near-full reader
// sets.
func TestGaussPivotBroadcast(t *testing.T) {
	tr := runTrace(t, NewGauss(ScaleTest))
	broad := 0
	for _, e := range tr.Events {
		if e.FutureReaders.Count() >= 12 {
			broad++
		}
	}
	if broad == 0 {
		t.Fatal("gauss has no broadcast-style communication")
	}
}

// TestWaterMixedStructure: water combines wide position reads with
// migratory locked force updates — both single-reader and multi-reader
// events must appear.
func TestWaterMixedStructure(t *testing.T) {
	tr := runTrace(t, NewWater(ScaleTest))
	single := shareOfEvents(tr, func(n int) bool { return n == 1 })
	multi := shareOfEvents(tr, func(n int) bool { return n >= 3 })
	if single == 0 || multi == 0 {
		t.Fatalf("water structure degenerate: single=%.2f multi=%.2f", single, multi)
	}
}

// TestUnstructFrontierSharing: unstruct nodes interior to a partition stay
// private; frontier nodes are shared by a small stable set. Most events
// should carry 1–3 readers.
func TestUnstructFrontierSharing(t *testing.T) {
	tr := runTrace(t, NewUnstruct(ScaleTest))
	if frac := shareOfEvents(tr, func(n int) bool { return n >= 1 && n <= 3 }); frac < 0.5 {
		t.Errorf("unstruct frontier-sharing fraction %.2f", frac)
	}
}

// TestFirstTouchHomesSpread: with first-touch placement and parallel
// initialisation, directory homes must be distributed over all nodes for
// every benchmark (the paper notes initial placement is "quite effective").
func TestFirstTouchHomesSpread(t *testing.T) {
	for _, b := range All(ScaleTest) {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			tr := runTrace(t, b)
			homes := map[uint8]bool{}
			for _, e := range tr.Events {
				homes[e.Dir] = true
			}
			// At test scale some benchmarks have very few
			// lines; still, homes must not collapse onto a
			// couple of nodes.
			if len(homes) < 4 {
				t.Errorf("only %d distinct home nodes", len(homes))
			}
		})
	}
}

// TestEventCountsScaleWithInput: a larger scale must produce strictly more
// events (guards against accidentally ignoring the scale parameter).
func TestEventCountsScaleWithInput(t *testing.T) {
	small := runTrace(t, NewEM3D(ScaleTest))
	m := machine.New(machine.DefaultConfig())
	NewEM3D(ScaleDefault).Run(m, 16, 1)
	big := m.Finish()
	if len(big.Events) <= len(small.Events) {
		t.Fatalf("default scale (%d events) not larger than test scale (%d)",
			len(big.Events), len(small.Events))
	}
}
