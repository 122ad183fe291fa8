package eval

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cohpredict/internal/bitmap"
	"cohpredict/internal/core"
	"cohpredict/internal/trace"
)

// This file holds the metamorphic property suite: identities that must
// hold between *pairs* of runs (scheme A vs scheme B, trace vs relabeled
// trace) rather than against fixed expected values. Any violation is
// reported as a ddmin-minimized failing trace so the offending event
// pattern is readable, not buried in thousands of random events.

// minimizeTrace shrinks tr to a locally-minimal trace that still
// satisfies fails (a 1-minimal subsequence: removing any single event
// makes the failure disappear). Classic ddmin chunk halving.
func minimizeTrace(tr *trace.Trace, fails func(*trace.Trace) bool) *trace.Trace {
	evs := append([]trace.Event(nil), tr.Events...)
	sub := func(e []trace.Event) *trace.Trace {
		return &trace.Trace{Nodes: tr.Nodes, Events: e}
	}
	for chunk := (len(evs) + 1) / 2; chunk >= 1; {
		removed := false
		for lo := 0; lo+chunk <= len(evs); {
			cand := append(append([]trace.Event(nil), evs[:lo]...), evs[lo+chunk:]...)
			if fails(sub(cand)) {
				evs = cand
				removed = true
			} else {
				lo += chunk
			}
		}
		if chunk == 1 && !removed {
			break
		}
		if chunk > 1 {
			chunk /= 2
		}
	}
	return sub(evs)
}

// dumpTrace renders a trace one event per line for failure reports.
func dumpTrace(tr *trace.Trace) string {
	var b strings.Builder
	for i, ev := range tr.Events {
		fmt.Fprintf(&b, "  [%d] pid=%d pc=%#x dir=%d addr=%#x inv=%v fut=%v",
			i, ev.PID, ev.PC, ev.Dir, ev.Addr, ev.InvReaders, ev.FutureReaders)
		if ev.HasPrev {
			fmt.Fprintf(&b, " prev=(%d,%#x)", ev.PrevPID, ev.PrevPC)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// failMinimized shrinks the witness trace and fails the test with it.
func failMinimized(t *testing.T, msg string, tr *trace.Trace, fails func(*trace.Trace) bool) {
	t.Helper()
	min := minimizeTrace(tr, fails)
	t.Fatalf("%s\nminimized witness (%d events):\n%s", msg, len(min.Events), dumpTrace(min))
}

// schemesDiverge reports whether the two schemes predict differently at
// any event of tr — the failure predicate for the depth-1 identity.
func schemesDiverge(a, b core.Scheme) func(*trace.Trace) bool {
	return func(tr *trace.Trace) bool {
		ea, eb := NewEngine(a, m16), NewEngine(b, m16)
		for _, ev := range tr.Events {
			if ea.Step(ev) != eb.Step(ev) {
				return true
			}
		}
		return false
	}
}

// TestDepth1UnionInterEqualLast: at depth 1 the union and intersection of
// a single history register are that register, so union(...)1 and
// inter(...)1 must equal last(...)1 event for event — for every update
// mechanism and whether or not the index discriminates writers.
func TestDepth1UnionInterEqualLast(t *testing.T) {
	tr := chainTrace(16, 48, 3000, 31)
	for _, idx := range []string{"(dir+add8)", "(pid+pc8)", "(add4)", "()"} {
		for _, mode := range []string{"[direct]", "[forwarded]", "[ordered]"} {
			last := mustParse(t, "last"+idx+"1"+mode)
			for _, fn := range []string{"union", "inter"} {
				other := mustParse(t, fn+idx+"1"+mode)
				if div := schemesDiverge(last, other); div(tr) {
					failMinimized(t,
						fmt.Sprintf("%s%s1%s diverges from last%s1%s", fn, idx, mode, idx, mode),
						tr, div)
				}
			}
		}
	}
}

// permuteBitmap relabels every set node of b through p.
func permuteBitmap(b bitmap.Bitmap, p []int) bitmap.Bitmap {
	out := bitmap.Empty
	for _, n := range b.Nodes() {
		out = out.Set(p[n])
	}
	return out
}

// permuteTrace relabels every node identity in the trace — writer, home
// directory, previous writer, and both reader bitmaps — through p. PCs
// and addresses are untouched.
func permuteTrace(tr *trace.Trace, p []int) *trace.Trace {
	out := &trace.Trace{Nodes: tr.Nodes, Events: make([]trace.Event, len(tr.Events))}
	for i, ev := range tr.Events {
		ev.PID = uint8(p[ev.PID])
		ev.Dir = uint8(p[ev.Dir])
		if ev.HasPrev {
			ev.PrevPID = uint8(p[ev.PrevPID])
		}
		ev.InvReaders = permuteBitmap(ev.InvReaders, p)
		ev.FutureReaders = permuteBitmap(ev.FutureReaders, p)
		out.Events[i] = ev
	}
	return out
}

// permutationBreaks reports whether the scheme fails equivariance on tr:
// running the relabeled trace must yield the relabeled predictions event
// for event, and identical aggregate tallies.
func permutationBreaks(sc core.Scheme, p []int) func(*trace.Trace) bool {
	return func(tr *trace.Trace) bool {
		orig := NewEngine(sc, m16)
		perm := NewEngine(sc, m16)
		ptr := permuteTrace(tr, p)
		for i := range tr.Events {
			if permuteBitmap(orig.Step(tr.Events[i]), p) != perm.Step(ptr.Events[i]) {
				return true
			}
		}
		return orig.Confusion() != perm.Confusion()
	}
}

// TestNodePermutationEquivariance: predictors know nothing about node
// numbering, so relabeling the machine's nodes permutes every predicted
// bitmap accordingly and leaves prevalence, sensitivity, and PVP exactly
// invariant. Exercised across all table kinds and update mechanisms.
func TestNodePermutationEquivariance(t *testing.T) {
	tr := chainTrace(16, 48, 3000, 37)
	p := rand.New(rand.NewSource(41)).Perm(16)
	for _, s := range []string{
		"last(dir+add8)1[direct]",
		"union(dir+add8)3[forwarded]",
		"inter(pid+pc8)2[direct]",
		"union(add6)2[ordered]",
		"pas(dir+add6)2[direct]",
		"sticky(add8)1[direct]",
	} {
		sc := mustParse(t, s)
		breaks := permutationBreaks(sc, p)
		if breaks(tr) {
			failMinimized(t, fmt.Sprintf("%s is not equivariant under node relabeling %v", s, p), tr, breaks)
		}
		// The aggregate statistics must come out bit-identical, which is
		// what makes prevalence/sensitivity/PVP relabeling-invariant.
		a := Evaluate(sc, m16, tr).Confusion
		b := Evaluate(sc, m16, permuteTrace(tr, p)).Confusion
		if a.Prevalence() != b.Prevalence() || a.Sensitivity() != b.Sensitivity() || a.PVP() != b.PVP() {
			t.Fatalf("%s: statistics changed under relabeling: %+v vs %+v", s, a, b)
		}
	}
}

// TestMinimizeTraceShrinks pins the minimizer itself: it must return a
// 1-minimal subsequence that still fails, so a property violation over a
// 3000-event random trace reports as a handful of events.
func TestMinimizeTraceShrinks(t *testing.T) {
	tr := chainTrace(16, 32, 1000, 43)
	// Artificial failure: the trace contains a write by node 3 somewhere
	// after a write by node 5 (needs exactly two events to witness).
	fails := func(tr *trace.Trace) bool {
		seen5 := false
		for _, ev := range tr.Events {
			if ev.PID == 5 {
				seen5 = true
			}
			if ev.PID == 3 && seen5 {
				return true
			}
		}
		return false
	}
	if !fails(tr) {
		t.Skip("random trace lacks the 5-then-3 pattern")
	}
	min := minimizeTrace(tr, fails)
	if !fails(min) {
		t.Fatal("minimized trace no longer fails the predicate")
	}
	if len(min.Events) != 2 {
		t.Fatalf("minimizer left %d events, want the 2-event witness:\n%s",
			len(min.Events), dumpTrace(min))
	}
	// 1-minimality: removing any single remaining event passes.
	for i := range min.Events {
		cand := &trace.Trace{Nodes: min.Nodes}
		cand.Events = append(append([]trace.Event(nil), min.Events[:i]...), min.Events[i+1:]...)
		if fails(cand) {
			t.Fatalf("minimized trace is not 1-minimal: event %d is removable", i)
		}
	}
}
