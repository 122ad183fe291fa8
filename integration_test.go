package cohpredict

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"cohpredict/internal/core"
	"cohpredict/internal/eval"
	"cohpredict/internal/forward"
	"cohpredict/internal/machine"
	"cohpredict/internal/search"
	"cohpredict/internal/trace"
	"cohpredict/internal/workload"
)

// genTrace runs a benchmark end to end.
func genTrace(t *testing.T, name string, seed int64) *trace.Trace {
	t.Helper()
	b, err := workload.ByName(name, workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(machine.DefaultConfig())
	b.Run(m, 16, seed)
	return m.Finish()
}

// TestPipelineDeterminism: workload → machine → trace → evaluation is
// bit-reproducible for a fixed seed.
func TestPipelineDeterminism(t *testing.T) {
	for _, name := range []string{"em3d", "mp3d", "water"} {
		a := genTrace(t, name, 9)
		b := genTrace(t, name, 9)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: traces differ across runs", name)
		}
		s, _ := core.ParseScheme("inter(pid+pc8)2[forwarded]")
		ca := eval.Evaluate(s, cm, a).Confusion
		cb := eval.Evaluate(s, cm, b).Confusion
		if ca != cb {
			t.Fatalf("%s: evaluations differ", name)
		}
	}
}

// TestTraceSaveLoadPreservesEvaluation: the binary codec round-trips the
// trace such that every scheme evaluates identically.
func TestTraceSaveLoadPreservesEvaluation(t *testing.T) {
	tr := genTrace(t, "barnes", 3)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, str := range []string{"last()1", "union(dir+add8)4[ordered]", "pas(pid)2"} {
		s, _ := core.ParseScheme(str)
		a := eval.Evaluate(s, cm, tr).Confusion
		b := eval.Evaluate(s, cm, loaded).Confusion
		if a != b {
			t.Fatalf("%s: evaluation changed after codec round-trip", str)
		}
	}
}

// TestForwardMatchesEvalMetrics: the data-forwarding estimator's yield and
// coverage are by construction the predictor's PVP and sensitivity — two
// modules computing the same quantity along different paths.
func TestForwardMatchesEvalMetrics(t *testing.T) {
	tr := genTrace(t, "ocean", 5)
	for _, str := range []string{"last()1", "union(dir+add8)4", "inter(pid+pc8)2[forwarded]"} {
		s, _ := core.ParseScheme(str)
		c := eval.Evaluate(s, cm, tr).Confusion
		r := forward.Estimate(s, cm, forward.DefaultConfig(), tr)
		if math.Abs(r.Yield()-c.PVP()) > 1e-12 {
			t.Errorf("%s: yield %v != PVP %v", str, r.Yield(), c.PVP())
		}
		if math.Abs(r.Coverage()-c.Sensitivity()) > 1e-12 {
			t.Errorf("%s: coverage %v != sensitivity %v", str, r.Coverage(), c.Sensitivity())
		}
		if r.UsefulForwards != c.TP || r.WastedForwards != c.FP {
			t.Errorf("%s: forward counts diverge from confusion", str)
		}
	}
}

// TestDecisionAccountingAcrossSuite: Table 6 accounting — decisions are
// exactly nodes × events for every benchmark.
func TestDecisionAccountingAcrossSuite(t *testing.T) {
	base, _ := core.ParseScheme("last()1")
	for _, b := range workload.All(workload.ScaleTest) {
		m := machine.New(machine.DefaultConfig())
		b.Run(m, 16, 1)
		tr := m.Finish()
		st := m.Stats()
		if uint64(len(tr.Events)) != st.TotalStoreMisses {
			t.Errorf("%s: events %d != store misses %d",
				b.Name(), len(tr.Events), st.TotalStoreMisses)
		}
		c := eval.Evaluate(base, cm, tr).Confusion
		if c.Decisions() != uint64(len(tr.Events)*16) {
			t.Errorf("%s: decisions %d != events×16", b.Name(), c.Decisions())
		}
	}
}

// TestLimitedDirectoryAccuracyInvariance: prediction statistics are
// identical under full-map and Dir_i NB directories for a full workload
// (the access-bit mechanism preserves feedback exactly); only traffic
// differs.
func TestLimitedDirectoryAccuracyInvariance(t *testing.T) {
	run := func(pointers int) (*trace.Trace, machine.Stats) {
		cfg := machine.DefaultConfig()
		cfg.DirPointers = pointers
		m := machine.New(cfg)
		b, _ := workload.ByName("unstruct", workload.ScaleTest)
		b.Run(m, 16, 2)
		return m.Finish(), m.Stats()
	}
	full, fullStats := run(0)
	lim, limStats := run(1)
	s, _ := core.ParseScheme("union(dir+add8)4")
	a := eval.Evaluate(s, cm, full).Confusion
	b := eval.Evaluate(s, cm, lim).Confusion
	if a != b {
		t.Fatalf("accuracy differs across directory organisations: %+v vs %+v", a, b)
	}
	if limStats.Directory.Broadcasts == 0 {
		t.Fatal("Dir1NB never broadcast")
	}
	if limStats.NetMessages <= fullStats.NetMessages {
		t.Fatal("limited directory should cost more traffic")
	}
}

// TestSweepConsistentWithSingleEvaluation on a real benchmark trace (the
// search package's own test uses synthetic traces).
func TestSweepConsistentWithSingleEvaluation(t *testing.T) {
	tr := genTrace(t, "gauss", 7)
	schemes := []core.Scheme{}
	for _, str := range []string{"union(dir+add6)4", "inter(pid+pc8)2[forwarded]", "sticky(add8)1"} {
		s, _ := core.ParseScheme(str)
		schemes = append(schemes, s)
	}
	stats, err := search.EvaluateSchemesObserved(schemes, cm, []search.NamedTrace{{Name: "gauss", Trace: tr}}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range schemes {
		want := eval.Evaluate(s, cm, tr).Confusion
		if stats[i].PerBench[0] != want {
			t.Errorf("%s: sweep %+v != single %+v", s.FullString(), stats[i].PerBench[0], want)
		}
	}
}

// TestSeedSensitivity: different seeds must change the interleaving (and
// hence the trace) but keep the headline statistics in the same regime —
// the qualitative robustness claim behind all reported numbers.
func TestSeedSensitivity(t *testing.T) {
	s, _ := core.ParseScheme("last()1")
	var prevs []float64
	for seed := int64(1); seed <= 3; seed++ {
		tr := genTrace(t, "em3d", seed)
		c := eval.Evaluate(s, cm, tr).Confusion
		prevs = append(prevs, c.Prevalence())
	}
	if prevs[0] == prevs[1] && prevs[1] == prevs[2] {
		t.Fatal("seeds do not perturb the simulation at all (suspicious)")
	}
	for _, p := range prevs {
		if math.Abs(p-prevs[0]) > 0.05 {
			t.Fatalf("prevalence unstable across seeds: %v", prevs)
		}
	}
}
