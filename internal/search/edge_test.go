package search

import (
	"testing"

	"cohpredict/internal/core"
	"cohpredict/internal/eval"
	"cohpredict/internal/metrics"
	"cohpredict/internal/trace"
)

// referenceConfusion evaluates one scheme with the reference engine.
func referenceConfusion(t *testing.T, s core.Scheme, tr *trace.Trace) metrics.Confusion {
	t.Helper()
	return eval.Evaluate(s, m16, tr).Confusion
}

func TestEvaluateSchemesNoTraces(t *testing.T) {
	s := mustParse(t, "last()1")
	stats := evalOK(EvaluateSchemesObserved([]core.Scheme{s}, m16, nil, 0, nil))
	if len(stats) != 1 || len(stats[0].PerBench) != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats[0].AvgPVP() != 0 {
		t.Fatal("empty average non-zero")
	}
}

func TestEvaluateSchemesEmptyTrace(t *testing.T) {
	s := mustParse(t, "union(dir+add6)4")
	stats := evalOK(EvaluateSchemesObserved([]core.Scheme{s}, m16,
		[]NamedTrace{{Name: "empty", Trace: &trace.Trace{Nodes: 16}}}, 0, nil))
	if stats[0].PerBench[0].Decisions() != 0 {
		t.Fatal("decisions on empty trace")
	}
}

func TestEvaluateSchemesNoSchemes(t *testing.T) {
	stats := evalOK(EvaluateSchemesObserved(nil, m16,
		[]NamedTrace{{Name: "x", Trace: randomTrace(16, 8, 100, 1)}}, 0, nil))
	if len(stats) != 0 {
		t.Fatalf("stats = %d", len(stats))
	}
}

// TestNarrowAndWideIndexesAgree: a narrow index, whose table stays
// small, and a wide one, whose table grows through several rehashes,
// both match the single-scheme engine within one sweep.
func TestNarrowAndWideIndexesAgree(t *testing.T) {
	tr := randomTrace(16, 64, 3000, 5)
	small := mustParse(t, "union(dir+add6)2")
	large := mustParse(t, "union(dir+add16)2")
	stats := evalOK(EvaluateSchemesObserved([]core.Scheme{small, large}, m16,
		[]NamedTrace{{Name: "r", Trace: tr}}, 0, nil))
	for i, s := range []core.Scheme{small, large} {
		want := referenceConfusion(t, s, tr)
		if stats[i].PerBench[0] != want {
			t.Errorf("%s: batch %+v != engine %+v", s.String(), stats[i].PerBench[0], want)
		}
	}
}
