package search

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cohpredict/internal/core"
)

// fingerprint renders stats byte-for-byte so equality failures are
// readable and the "byte-identical" guarantee is tested literally.
func fingerprint(stats []Stats) string {
	out := ""
	for _, st := range stats {
		out += fmt.Sprintf("%s|%d|%v|%v\n", st.Scheme.FullString(), st.SizeLog2, st.Bench, st.PerBench)
	}
	return out
}

// TestSerialParallelEquivalence is the determinism invariant of the
// parallel sweep engine: a randomized scheme subset evaluated over two
// traces must produce byte-identical []Stats at every worker count. The
// subset is drawn property-style from the paper's full search region plus
// sticky-spatial schemes, so all three table kinds and all update modes
// cross goroutine boundaries.
func TestSerialParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var pool []core.Scheme
	for _, mode := range core.UpdateModes() {
		pool = append(pool, DefaultSpace(mode).Schemes(m16)...)
		for _, str := range []string{"sticky(add6)1", "sticky(dir+add4)1", "sticky(pid+add8)1"} {
			s := mustParse(t, str)
			s.Update = mode
			pool = append(pool, s)
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	schemes := pool[:120]

	traces := []NamedTrace{
		{Name: "a", Trace: randomTrace(16, 40, 3000, 11)},
		{Name: "b", Trace: randomTrace(16, 24, 2500, 12)},
	}
	serial := evalOK(EvaluateSchemesObserved(schemes, m16, traces, 1, nil))
	for _, workers := range []int{2, 8} {
		parallel := evalOK(EvaluateSchemesObserved(schemes, m16, traces, workers, nil))
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("workers=%d diverged from serial", workers)
		}
		if fingerprint(serial) != fingerprint(parallel) {
			t.Fatalf("workers=%d fingerprint differs from serial", workers)
		}
	}
}

// TestWorkerCountEdgeCases: the pool must clamp sanely when asked for more
// workers than tasks, or a negative count (= GOMAXPROCS), and the default
// entry point must agree with the explicit one.
func TestWorkerCountEdgeCases(t *testing.T) {
	tr := randomTrace(16, 16, 600, 3)
	traces := []NamedTrace{{Name: "x", Trace: tr}}
	schemes := []core.Scheme{
		mustParse(t, "inter(pid+pc4)2"),
		mustParse(t, "union(dir+add6)4"),
	}
	want := evalOK(EvaluateSchemesObserved(schemes, m16, traces, 1, nil))
	for _, workers := range []int{-1, 64} {
		if got := evalOK(EvaluateSchemesObserved(schemes, m16, traces, workers, nil)); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d diverged", workers)
		}
	}
	if got := evalOK(EvaluateSchemesObserved(schemes, m16, traces, 0, nil)); !reflect.DeepEqual(got, want) {
		t.Fatal("default worker count diverged from workers=1")
	}
}

// TestPlanHoisting checks the trace-independent classification: the same
// plan set drives every trace, and state still resets per trace (a scheme
// evaluated over [t1, t2] must score t2 identically to a fresh evaluation
// over [t2] alone).
func TestPlanHoisting(t *testing.T) {
	t1 := randomTrace(16, 16, 900, 21)
	t2 := randomTrace(16, 16, 900, 22)
	schemes := []core.Scheme{
		mustParse(t, "inter(pid+pc6)2[forwarded]"),
		mustParse(t, "pas(pid+add4)2"),
		mustParse(t, "sticky(dir+add4)1"),
	}
	both := evalOK(EvaluateSchemesObserved(schemes, m16, []NamedTrace{
		{Name: "t1", Trace: t1}, {Name: "t2", Trace: t2}}, 0, nil))
	solo := evalOK(EvaluateSchemesObserved(schemes, m16, []NamedTrace{{Name: "t2", Trace: t2}}, 0, nil))
	for i := range schemes {
		if both[i].PerBench[1] != solo[i].PerBench[0] {
			t.Errorf("%s: state leaked across traces: %v != %v",
				schemes[i].FullString(), both[i].PerBench[1], solo[i].PerBench[0])
		}
	}
}
