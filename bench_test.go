// Package cohpredict's root benchmark harness: one testing.B benchmark per
// table and figure of the paper (see DESIGN.md's experiment index), plus
// ablation benches for the design choices the taxonomy calls out and
// micro-benchmarks of the hot paths. Benchmarks run the full pipeline at
// test scale so `go test -bench=. -benchmem` finishes in minutes; use
// cmd/predsim for full-scale reproductions.
package cohpredict

import (
	"fmt"
	"sync"
	"testing"

	"cohpredict/internal/core"
	"cohpredict/internal/cosmos"
	"cohpredict/internal/eval"
	"cohpredict/internal/experiments"
	"cohpredict/internal/forward"
	"cohpredict/internal/machine"
	"cohpredict/internal/obs"
	"cohpredict/internal/search"
	"cohpredict/internal/workload"
)

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
)

// benchSuite generates the benchmark traces once per test-binary run.
func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		cfg := experiments.DefaultConfig()
		cfg.Scale = workload.ScaleTest
		cfg.Quick = true
		suite = experiments.NewSuite(cfg)
	})
	return suite
}

var cm = core.Machine{Nodes: 16, LineBytes: 64}

func mustScheme(b *testing.B, s string) core.Scheme {
	b.Helper()
	sc, err := core.ParseScheme(s)
	if err != nil {
		b.Fatal(err)
	}
	return sc
}

func benchTable(b *testing.B, n int) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Table(n); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFigure(b *testing.B, n int) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Figure(n); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper table -----------------------------------------

// BenchmarkTable3Workloads regenerates Table 3 (benchmark inputs) including
// the workload simulation it summarises.
func BenchmarkTable3Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultConfig()
		cfg.Scale = workload.ScaleTest
		s := experiments.NewSuite(cfg)
		if _, err := s.Table(3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4SystemParams renders the machine configuration table.
func BenchmarkTable4SystemParams(b *testing.B) { benchTable(b, 4) }

// BenchmarkTable5Stats regenerates the store/block statistics table.
func BenchmarkTable5Stats(b *testing.B) { benchTable(b, 5) }

// BenchmarkTable6Prevalence regenerates the prevalence-of-sharing table.
func BenchmarkTable6Prevalence(b *testing.B) { benchTable(b, 6) }

// BenchmarkTable7PriorSchemes evaluates the prior-work schemes (baseline,
// Kaxiras–Goodman, Lai–Falsafi) under direct and forwarded update.
func BenchmarkTable7PriorSchemes(b *testing.B) { benchTable(b, 7) }

// BenchmarkTable8TopPVPDirect sweeps the design space (direct update) and
// ranks by PVP.
func BenchmarkTable8TopPVPDirect(b *testing.B) { benchTable(b, 8) }

// BenchmarkTable9TopPVPForwarded sweeps the design space (forwarded update)
// and ranks by PVP.
func BenchmarkTable9TopPVPForwarded(b *testing.B) { benchTable(b, 9) }

// BenchmarkTable10TopSensDirect ranks the direct-update sweep by
// sensitivity.
func BenchmarkTable10TopSensDirect(b *testing.B) { benchTable(b, 10) }

// BenchmarkTable11TopSensForwarded ranks the forwarded-update sweep by
// sensitivity.
func BenchmarkTable11TopSensForwarded(b *testing.B) { benchTable(b, 11) }

// --- One benchmark per paper figure -----------------------------------------

// BenchmarkFigure6Intersection sweeps intersection prediction over the 16
// indexing combinations under all three update mechanisms.
func BenchmarkFigure6Intersection(b *testing.B) { benchFigure(b, 6) }

// BenchmarkFigure7Union does the same for union prediction.
func BenchmarkFigure7Union(b *testing.B) { benchFigure(b, 7) }

// BenchmarkFigure8PAs does the same for two-level adaptive prediction.
func BenchmarkFigure8PAs(b *testing.B) { benchFigure(b, 8) }

// BenchmarkFigure9Depth compares history depths 2 and 4 per function under
// direct update.
func BenchmarkFigure9Depth(b *testing.B) { benchFigure(b, 9) }

// --- Ablations ---------------------------------------------------------------

// BenchmarkAblationDepth evaluates the intersection family at each history
// depth over the suite: the paper's §5.4.3 depth study as a single bench.
func BenchmarkAblationDepth(b *testing.B) {
	s := benchSuite(b)
	traces := s.NamedTraces()
	var schemes []core.Scheme
	schemes = append(schemes, mustScheme(b, "last(pid+add6)1"))
	for d := 2; d <= core.MaxDepth; d++ {
		schemes = append(schemes,
			core.Scheme{Fn: core.Inter, Index: core.IndexSpec{UsePID: true, AddrBits: 6}, Depth: d},
			core.Scheme{Fn: core.Union, Index: core.IndexSpec{UsePID: true, AddrBits: 6}, Depth: d})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = search.EvaluateSchemesObserved(schemes, cm, traces, 0, obs.Default())
	}
}

// BenchmarkAblationIndexFields drops one index field at a time from the
// full hybrid index, quantifying each field's contribution (the paper's
// "pid and history depth are paramount" finding).
func BenchmarkAblationIndexFields(b *testing.B) {
	s := benchSuite(b)
	traces := s.NamedTraces()
	schemes := []core.Scheme{
		mustScheme(b, "inter(pid+pc4+dir+add4)2"), // full
		mustScheme(b, "inter(pc4+dir+add4)2"),     // −pid
		mustScheme(b, "inter(pid+dir+add4)2"),     // −pc
		mustScheme(b, "inter(pid+pc4+add4)2"),     // −dir
		mustScheme(b, "inter(pid+pc4+dir)2"),      // −addr
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = search.EvaluateSchemesObserved(schemes, cm, traces, 0, obs.Default())
	}
}

// BenchmarkAblationUpdateMechanism evaluates one scheme under each update
// mechanism — the §3.4 comparison in isolation.
func BenchmarkAblationUpdateMechanism(b *testing.B) {
	s := benchSuite(b)
	traces := s.NamedTraces()
	var schemes []core.Scheme
	for _, mode := range core.UpdateModes() {
		sc := mustScheme(b, "inter(pid+pc8)2")
		sc.Update = mode
		schemes = append(schemes, sc)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = search.EvaluateSchemesObserved(schemes, cm, traces, 0, obs.Default())
	}
}

// BenchmarkForwardingEstimator runs the data-forwarding extension over the
// suite for a representative scheme.
func BenchmarkForwardingEstimator(b *testing.B) {
	s := benchSuite(b)
	scheme := mustScheme(b, "union(dir+add8)2")
	cfg := forward.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range s.Runs {
			forward.Estimate(scheme, cm, cfg, r.Trace)
		}
	}
}

// BenchmarkCosmosNextWriter measures the Cosmos-style next-writer
// predictor (extension) over the suite.
func BenchmarkCosmosNextWriter(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range s.Runs {
			cosmos.Evaluate(1, r.Trace)
		}
	}
}

// BenchmarkExtensionMESI regenerates the MESI silent-upgrade study.
func BenchmarkExtensionMESI(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = s.ExtensionMESI()
	}
}

// BenchmarkExtensionSticky regenerates the sticky-spatial comparison.
func BenchmarkExtensionSticky(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = s.ExtensionSticky()
	}
}

// --- Hot-path micro-benchmarks ----------------------------------------------

// BenchmarkEngineStep measures single-scheme evaluation throughput
// (events/sec drive every sweep above).
func BenchmarkEngineStep(b *testing.B) {
	s := benchSuite(b)
	tr := s.Runs[0].Trace
	eng := eval.NewEngine(mustScheme(b, "inter(pid+pc8)2"), cm)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step(tr.Events[i%len(tr.Events)])
	}
}

// BenchmarkBatchSweepPerEvent measures the shared-state batch evaluator on
// the full quick space, normalised per event.
func BenchmarkBatchSweepPerEvent(b *testing.B) {
	s := benchSuite(b)
	traces := s.NamedTraces()[:1]
	schemes := search.QuickSpace(core.Direct).Schemes(cm)
	events := len(traces[0].Trace.Events)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = search.EvaluateSchemesObserved(schemes, cm, traces, 0, obs.Default())
	}
	b.ReportMetric(float64(b.N*events), "events")
}

// --- Parallel sweep engine --------------------------------------------------

// benchSweepWorkers runs the Table 8 sweep workload (the quick direct-update
// design space over the full suite) at a fixed worker count.
func benchSweepWorkers(b *testing.B, workers int) {
	s := benchSuite(b)
	traces := s.NamedTraces()
	schemes := search.QuickSpace(core.Direct).Schemes(cm)
	var events int
	for _, nt := range traces {
		events += len(nt.Trace.Events)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = search.EvaluateSchemesObserved(schemes, cm, traces, workers, obs.Default())
	}
	b.ReportMetric(float64(events*len(schemes)*b.N)/b.Elapsed().Seconds(), "scheme-events/s")
}

// BenchmarkSweepSerial is the workers=1 baseline of the parallel family.
func BenchmarkSweepSerial(b *testing.B) { benchSweepWorkers(b, 1) }

// BenchmarkSweepParallel sweeps the same workload at increasing worker
// counts; on a 4+-core machine the 4-worker variant runs ≥2× the serial
// baseline (the work fans out over traces × index specs, far more tasks
// than workers). The sub-benchmark results are byte-identical []Stats —
// asserted by TestSerialParallelEquivalence in internal/search.
func BenchmarkSweepParallel(b *testing.B) {
	for _, w := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchSweepWorkers(b, w) })
	}
	b.Run("workers=max", func(b *testing.B) { benchSweepWorkers(b, 0) })
}

// BenchmarkSuiteGenerationParallel measures suite trace generation on the
// full worker pool (cf. BenchmarkTraceGenerationAll, the serial loop).
func BenchmarkSuiteGenerationParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultConfig()
		cfg.Scale = workload.ScaleTest
		experiments.NewSuite(cfg)
	}
}

// BenchmarkMachineSimulation measures raw simulation throughput
// (accesses/s) on the em3d kernel.
func BenchmarkMachineSimulation(b *testing.B) {
	var accesses uint64
	for i := 0; i < b.N; i++ {
		accesses += simulate(workload.NewEM3D(workload.ScaleTest))
	}
	b.ReportMetric(float64(accesses)/b.Elapsed().Seconds(), "accesses/s")
}

// BenchmarkTraceGenerationAll measures end-to-end trace generation for the
// whole suite.
func BenchmarkTraceGenerationAll(b *testing.B) {
	var accesses uint64
	for i := 0; i < b.N; i++ {
		for _, w := range workload.All(workload.ScaleTest) {
			accesses += simulate(w)
		}
	}
	b.ReportMetric(float64(accesses)/b.Elapsed().Seconds(), "accesses/s")
}

// simulate runs w on a fresh machine, seed 1, and returns the loads and
// stores the machine served.
func simulate(w workload.Benchmark) uint64 {
	m := machine.New(machine.DefaultConfig())
	w.Run(m, 16, 1)
	m.Finish()
	st := m.Stats()
	return st.TotalLoads + st.TotalStores
}
