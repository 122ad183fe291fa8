package search

import (
	"math/rand"
	"strings"
	"testing"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/core"
	"cohpredict/internal/eval"
	"cohpredict/internal/metrics"
	"cohpredict/internal/trace"
)

var m16 = core.Machine{Nodes: 16, LineBytes: 64}

func mustParse(t *testing.T, s string) core.Scheme {
	t.Helper()
	sc, err := core.ParseScheme(s)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// evalOK unwraps an EvaluateSchemesObserved result; these tests only evaluate
// valid schemes, so an error is a test bug and aborts via panic.
func evalOK(stats []Stats, err error) []Stats {
	if err != nil {
		panic(err)
	}
	return stats
}

// randomTrace builds a directory-consistent random trace (same construction
// as the eval tests).
func randomTrace(nodes, blocks, events int, seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	type epoch struct {
		pid      int
		pc       uint64
		readers  bitmap.Bitmap
		open     int
		hasOwner bool
	}
	state := make([]epoch, blocks)
	for i := range state {
		state[i].open = -1
	}
	tr := &trace.Trace{Nodes: nodes}
	for len(tr.Events) < events {
		b := rng.Intn(blocks)
		pid := rng.Intn(nodes)
		if rng.Intn(3) > 0 {
			if state[b].hasOwner && pid != state[b].pid {
				state[b].readers = state[b].readers.Set(pid)
			}
			continue
		}
		st := &state[b]
		inv := st.readers
		if st.hasOwner {
			inv = inv.Clear(st.pid)
		}
		if st.open >= 0 {
			tr.Events[st.open].FutureReaders = inv
		}
		e := trace.Event{PID: uint8(pid), PC: uint64(16 + rng.Intn(12)), Dir: uint8(b % nodes),
			Addr: uint64(b) * 64, InvReaders: inv}
		if st.hasOwner {
			e.HasPrev, e.PrevPID, e.PrevPC = true, uint8(st.pid), st.pc
		}
		tr.Events = append(tr.Events, e)
		st.hasOwner, st.pid, st.pc = true, pid, e.PC
		st.readers = bitmap.Empty
		st.open = len(tr.Events) - 1
	}
	for i := range state {
		if st := &state[i]; st.open >= 0 {
			inv := st.readers
			if st.hasOwner {
				inv = inv.Clear(st.pid)
			}
			tr.Events[st.open].FutureReaders = inv
		}
	}
	return tr
}

// TestBatchMatchesEngine is the load-bearing cross-check: the shared-state
// batch evaluator must produce bit-identical confusion counts to the
// reference single-scheme engine, for every function, depth, indexing and
// update mode combination sampled here.
func TestBatchMatchesEngine(t *testing.T) {
	tr := randomTrace(16, 48, 4000, 31)
	var schemes []core.Scheme
	for _, str := range []string{
		"last()1", "last(pid+pc8)1", "union(dir+add6)2", "union(dir+add6)4",
		"inter(dir+add6)2", "inter(dir+add6)3", "inter(pid+pc4+add4)4",
		"pas(pid+add4)1", "pas(pid+add4)2", "pas(dir)4",
		"union(add2)3", "inter(pc6)2",
		"sticky(add6)1", "sticky(dir+add4)1", "sticky(pid+add8)1",
	} {
		for _, mode := range core.UpdateModes() {
			s := mustParse(t, str)
			s.Update = mode
			schemes = append(schemes, s)
		}
	}
	traces := []NamedTrace{{Name: "rnd", Trace: tr}}
	batch := evalOK(EvaluateSchemesObserved(schemes, m16, traces, 0, nil))
	for i, s := range schemes {
		want := eval.Evaluate(s, m16, tr).Confusion
		if got := batch[i].PerBench[0]; got != want {
			t.Errorf("%s: batch %+v != engine %+v", s.FullString(), got, want)
		}
	}
}

func TestStatsAverages(t *testing.T) {
	t1 := randomTrace(16, 16, 800, 1)
	t2 := randomTrace(16, 16, 800, 2)
	s := mustParse(t, "union(dir+add6)4")
	stats := evalOK(EvaluateSchemesObserved([]core.Scheme{s}, m16, []NamedTrace{
		{Name: "a", Trace: t1}, {Name: "b", Trace: t2}}, 0, nil))
	st := stats[0]
	if len(st.PerBench) != 2 || st.Bench[0] != "a" || st.Bench[1] != "b" {
		t.Fatalf("stats = %+v", st)
	}
	want := (st.PerBench[0].Sensitivity() + st.PerBench[1].Sensitivity()) / 2
	if got := st.AvgSensitivity(); got != want {
		t.Errorf("AvgSensitivity = %v, want %v", got, want)
	}
	if (Stats{}).AvgPVP() != 0 {
		t.Error("empty stats average non-zero")
	}
}

func TestSorting(t *testing.T) {
	a := Stats{Scheme: mustParse(t, "union(add2)2")}
	a.PerBench = append(a.PerBench, confusion(80, 20, 0, 20)) // pvp .8 sens .8
	b := Stats{Scheme: mustParse(t, "inter(add2)2")}
	b.PerBench = append(b.PerBench, confusion(90, 10, 0, 60)) // pvp .9 sens .6
	stats := []Stats{a, b}
	SortByPVP(stats)
	if stats[0].Scheme.Fn != core.Inter {
		t.Error("SortByPVP wrong order")
	}
	SortBySensitivity(stats)
	if stats[0].Scheme.Fn != core.Union {
		t.Error("SortBySensitivity wrong order")
	}
}

func TestSortTieBreaksBySize(t *testing.T) {
	a := Stats{Scheme: mustParse(t, "union(add8)2"), SizeLog2: 13}
	b := Stats{Scheme: mustParse(t, "union(add2)2"), SizeLog2: 7}
	c := confusion(50, 50, 0, 50)
	a.PerBench = append(a.PerBench, c)
	b.PerBench = append(b.PerBench, c)
	stats := []Stats{a, b}
	SortByPVP(stats)
	if stats[0].SizeLog2 != 7 {
		t.Error("tie not broken by size")
	}
}

// confusion builds a metrics.Confusion literal.
func confusion(tp, fp, tn, fn uint64) metrics.Confusion {
	return metrics.Confusion{TP: tp, FP: fp, TN: tn, FN: fn}
}

func TestEvaluateSchemesRejectsInvalid(t *testing.T) {
	for _, s := range []core.Scheme{
		{Fn: core.Inter, Depth: 0},
		// Valid alone, but 67 bits wide with a 16-node machine's pid and dir.
		{Fn: core.Last, Depth: 1, Index: core.IndexSpec{UsePID: true, PCBits: 55, UseDir: true, AddrBits: 4}},
	} {
		stats, err := EvaluateSchemesObserved([]core.Scheme{s}, m16, nil, 0, nil)
		if err == nil {
			t.Fatalf("invalid scheme %s accepted", s.FullString())
		}
		if stats != nil {
			t.Fatalf("stats = %+v, want nil on error", stats)
		}
		if !strings.Contains(err.Error(), "scheme 0") {
			t.Errorf("error %q does not identify the offending scheme", err)
		}
	}
}
