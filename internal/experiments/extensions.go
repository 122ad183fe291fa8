package experiments

import (
	"fmt"

	"cohpredict/internal/core"
	"cohpredict/internal/cosmos"
	"cohpredict/internal/eval"
	"cohpredict/internal/machine"
	"cohpredict/internal/obs"
	"cohpredict/internal/online"
	"cohpredict/internal/report"
	"cohpredict/internal/search"
	"cohpredict/internal/workload"
)

// Pareto renders the cost–accuracy frontier of the design-space sweep under
// the given update mechanism: for each predictor size (log2 bits), the best
// achievable PVP and sensitivity at or below that budget, with the schemes
// that achieve them. This realises the paper's second evaluation axis ("we
// evaluate prediction accuracy, and bit cost per scheme") as a single
// artifact: it shows where additional bits stop paying.
func (s *Suite) Pareto(mode core.UpdateMode) (string, error) {
	defer s.span("pareto")()
	stats, err := s.sweep(mode)
	if err != nil {
		return "", err
	}
	type best struct {
		pvp, sens             float64
		pvpScheme, sensScheme string
	}
	bySize := map[int]*best{}
	maxSize := 0
	for _, st := range stats {
		b := bySize[st.SizeLog2]
		if b == nil {
			b = &best{}
			bySize[st.SizeLog2] = b
		}
		if p := st.AvgPVP(); p > b.pvp {
			b.pvp, b.pvpScheme = p, st.Scheme.String()
		}
		if v := st.AvgSensitivity(); v > b.sens {
			b.sens, b.sensScheme = v, st.Scheme.String()
		}
		if st.SizeLog2 > maxSize {
			maxSize = st.SizeLog2
		}
	}
	t := report.NewTable(
		fmt.Sprintf("Cost-accuracy Pareto frontier, %v update (cumulative best at or below each size)", mode),
		"SizeLog2", "BestPVP", "PVP scheme", "BestSens", "Sens scheme")
	cum := best{}
	for size := 0; size <= maxSize; size++ {
		b := bySize[size]
		if b != nil {
			if b.pvp > cum.pvp {
				cum.pvp, cum.pvpScheme = b.pvp, b.pvpScheme
			}
			if b.sens > cum.sens {
				cum.sens, cum.sensScheme = b.sens, b.sensScheme
			}
		}
		if b == nil && size != 0 {
			continue // no scheme at exactly this size: row elided
		}
		t.AddRowf(fmt.Sprint(size),
			fmt.Sprintf("%.3f", cum.pvp), cum.pvpScheme,
			fmt.Sprintf("%.3f", cum.sens), cum.sensScheme)
	}
	return t.String(), nil
}

// ExtensionSticky compares the sticky-spatial scheme (the expansion invited
// by the paper's footnote 2) against the built-in functions at matched
// index widths.
func (s *Suite) ExtensionSticky() (string, error) {
	defer s.span("ext/sticky")()
	schemes := []string{
		"sticky(dir+add8)1",
		"last(dir+add8)1",
		"union(dir+add8)2",
		"union(dir+add8)4",
		"inter(dir+add8)2",
	}
	var parsed []core.Scheme
	for _, str := range schemes {
		sc, err := core.ParseScheme(str)
		if err != nil {
			return "", fmt.Errorf("experiments: sticky scheme %q: %w", str, err)
		}
		parsed = append(parsed, sc)
	}
	stats, err := s.evaluate("ext/sticky", parsed, s.NamedTraces())
	if err != nil {
		return "", err
	}
	t := report.NewTable(
		"Extension: sticky-spatial prediction (Bilir et al.) vs built-in functions",
		"Scheme", "SizeLog2", "Sens", "PVP")
	for _, st := range stats {
		t.AddRowf(st.Scheme.String(), fmt.Sprint(st.SizeLog2),
			fmt.Sprintf("%.3f", st.AvgSensitivity()), fmt.Sprintf("%.3f", st.AvgPVP()))
	}
	return t.String(), nil
}

// ExtensionLearning renders the learning curve of two representative
// schemes on one benchmark: per-window sensitivity and PVP, showing how
// quickly the predictors warm up — context for interpreting the absolute
// numbers of the small-scale tables.
func (s *Suite) ExtensionLearning() (string, error) {
	defer s.span("ext/learning")()
	run := s.Runs[0]
	windows := 8
	size := len(run.Trace.Events) / windows
	if size == 0 {
		size = 1
	}
	t := report.NewTable(
		fmt.Sprintf("Extension: learning curves on %s (%d events per window)",
			run.Benchmark.Name(), size),
		"Window", "last()1 sens/pvp", "inter(pid+pc8)2 sens/pvp", "union(dir+add8)4 sens/pvp")
	var curves [][]eval.Window
	for _, str := range []string{"last()1", "inter(pid+pc8)2", "union(dir+add8)4"} {
		sc, err := core.ParseScheme(str)
		if err != nil {
			return "", fmt.Errorf("experiments: learning scheme %q: %w", str, err)
		}
		curves = append(curves, eval.EvaluateWindowed(sc, s.CM, run.Trace, size))
	}
	for w := 0; w < len(curves[0]); w++ {
		cells := []string{fmt.Sprint(w)}
		for _, c := range curves {
			if w < len(c) {
				cells = append(cells, fmt.Sprintf("%.2f/%.2f",
					c[w].Confusion.Sensitivity(), c[w].Confusion.PVP()))
			} else {
				cells = append(cells, "-")
			}
		}
		t.AddRowf(cells...)
	}
	return t.String(), nil
}

// ExtensionScaling re-runs one benchmark on machines of 4–64 nodes,
// showing how prevalence and baseline predictability move with system
// size — the scalability question the paper's fixed 16-node study leaves
// open.
func (s *Suite) ExtensionScaling() (string, error) {
	defer s.span("ext/scaling")()
	t := report.NewTable(
		"Extension: machine-size scaling (em3d)",
		"Nodes", "Events", "Prevalence(%)", "BaselineSens", "BaselinePVP")
	base, err := core.ParseScheme("last()1")
	if err != nil {
		return "", fmt.Errorf("experiments: scaling baseline: %w", err)
	}
	for _, nodes := range []int{4, 8, 16, 32, 64} {
		cfg := s.Config.Machine
		cfg.Nodes = nodes
		m := machine.New(cfg)
		bench := findBench(s, "em3d")
		bench.Run(m, nodes, s.Config.Seed)
		tr := m.Finish()
		cm := core.Machine{Nodes: nodes, LineBytes: cfg.LineBytes}
		stats, err := search.EvaluateSchemesObserved([]core.Scheme{base}, cm,
			[]search.NamedTrace{{Name: "em3d", Trace: tr}}, s.Config.Workers, obs.Default())
		if err != nil {
			return "", err
		}
		t.AddRowf(fmt.Sprint(nodes), fmt.Sprint(len(tr.Events)),
			fmt.Sprintf("%.2f", 100*stats[0].AvgPrevalence()),
			fmt.Sprintf("%.3f", stats[0].AvgSensitivity()),
			fmt.Sprintf("%.3f", stats[0].AvgPVP()))
	}
	return t.String(), nil
}

// ExtensionOnlineForwarding co-simulates the data-forwarding protocol with
// the predictor in the loop (internal/online), decomposing forwards into
// on-time, late and early/wasted at increasing network delays — the §3.3
// timing effects the offline estimator cannot see. The online yield of a
// scheme is bounded above by its offline PVP; the gap is pure timing loss.
func (s *Suite) ExtensionOnlineForwarding() (string, error) {
	defer s.span("ext/online-forwarding")()
	t := report.NewTable(
		"Extension: online forwarding co-simulation (em3d, union(dir+add8)2)",
		"HopTicks", "OnTime", "Late", "Early", "Unserved", "EffYield", "EffCoverage")
	sc, err := core.ParseScheme("union(dir+add8)2")
	if err != nil {
		return "", fmt.Errorf("experiments: online-forwarding scheme: %w", err)
	}
	bench := findBench(s, "em3d")
	for _, hop := range []uint64{0, 8, 64, 512} {
		sim, err := online.New(s.Config.Machine, online.Config{Scheme: sc, HopTicks: hop})
		if err != nil {
			return "", err
		}
		bench.Run(sim, s.Config.Machine.Nodes, s.Config.Seed)
		res, _ := sim.Finish()
		t.AddRowf(fmt.Sprint(hop),
			fmt.Sprint(res.OnTime), fmt.Sprint(res.Late), fmt.Sprint(res.Early),
			fmt.Sprint(res.UnservedMisses),
			fmt.Sprintf("%.3f", res.EffectiveYield()),
			fmt.Sprintf("%.3f", res.EffectiveCoverage()))
	}
	return t.String(), nil
}

// ExtensionCosmos evaluates the Cosmos-style next-writer predictor
// (Mukherjee & Hill's message-prediction lineage, which the paper's
// footnote 5 leaves outside its taxonomy) over the suite's traces, at
// history depths 0–2. High depth-0 accuracy means writers repeat; the
// depth-1/2 gain over depth 0 measures how much *pattern* the ownership
// stream carries — the migratory analogue of the reader-set study.
func (s *Suite) ExtensionCosmos() (string, error) {
	defer s.span("ext/cosmos")()
	t := report.NewTable(
		"Extension: Cosmos-style next-writer prediction (accuracy/coverage per history depth)",
		"Benchmark", "depth 0", "depth 1", "depth 2")
	for _, r := range s.Runs {
		cells := []string{r.Benchmark.Name()}
		for depth := 0; depth <= 2; depth++ {
			res := cosmos.Evaluate(depth, r.Trace)
			cells = append(cells, fmt.Sprintf("%.2f/%.2f", res.Accuracy(), res.Coverage()))
		}
		t.AddRowf(cells...)
	}
	return t.String(), nil
}

// ExtensionMESI re-runs the suite under a MESI protocol, where stores to
// Exclusive lines promote silently and emit no prediction event. It
// reports, per benchmark, the event reduction and the effect on an
// instruction-indexed scheme — quantifying how much predictor-relevant
// information the E state hides (silent epochs are attributed to the
// granting *load*, diluting pc-indexed history).
func (s *Suite) ExtensionMESI() (string, error) {
	defer s.span("ext/mesi")()
	t := report.NewTable(
		"Extension: MESI silent upgrades — events lost to the E state and accuracy impact",
		"Benchmark", "MSI events", "MESI events", "E-grants",
		"MSI inter(pid+pc8)2 sens/pvp", "MESI sens/pvp")
	scheme, err := core.ParseScheme("inter(pid+pc8)2")
	if err != nil {
		return "", fmt.Errorf("experiments: MESI scheme: %w", err)
	}
	for _, r := range s.Runs {
		cfg := s.Config.Machine
		cfg.MESI = true
		m := machine.New(cfg)
		r.Benchmark.Run(m, cfg.Nodes, s.Config.Seed)
		mesiTrace := m.Finish()
		grants := m.Stats().Directory.ExclusiveGrants

		msiStats, err := s.evaluate("ext/mesi/msi", []core.Scheme{scheme},
			[]search.NamedTrace{{Name: r.Benchmark.Name(), Trace: r.Trace}})
		if err != nil {
			return "", err
		}
		mesiStats, err := s.evaluate("ext/mesi/mesi", []core.Scheme{scheme},
			[]search.NamedTrace{{Name: r.Benchmark.Name(), Trace: mesiTrace}})
		if err != nil {
			return "", err
		}
		msi, mesi := msiStats[0], mesiStats[0]
		t.AddRowf(r.Benchmark.Name(),
			fmt.Sprint(len(r.Trace.Events)), fmt.Sprint(len(mesiTrace.Events)),
			fmt.Sprint(grants),
			fmt.Sprintf("%.2f/%.2f", msi.AvgSensitivity(), msi.AvgPVP()),
			fmt.Sprintf("%.2f/%.2f", mesi.AvgSensitivity(), mesi.AvgPVP()))
	}
	return t.String(), nil
}

func findBench(s *Suite, name string) workload.Benchmark {
	for _, r := range s.Runs {
		if r.Benchmark.Name() == name {
			return r.Benchmark
		}
	}
	return s.Runs[0].Benchmark
}

// ExtensionLimitedDirectory re-runs one benchmark under Dir_i NB
// directories with decreasing pointer counts, showing that prediction
// feedback (and hence accuracy) is unchanged while broadcast traffic grows
// — the protocol-substrate sensitivity study for the paper's "e.g. Dir_i
// NB" assumption.
func (s *Suite) ExtensionLimitedDirectory() (string, error) {
	defer s.span("ext/limited-directory")()
	t := report.NewTable(
		"Extension: limited-pointer directories (Dir_i NB) — prediction accuracy is organisation-invariant",
		"Directory", "Invalidations", "Broadcasts", "NetMessages", "BaselineSens", "BaselinePVP")
	bench := s.Runs[0].Benchmark
	base, err := core.ParseScheme("last()1")
	if err != nil {
		return "", fmt.Errorf("experiments: limited-directory baseline: %w", err)
	}
	for _, ptrs := range []int{0, 8, 4, 2, 1} {
		cfg := s.Config.Machine
		cfg.DirPointers = ptrs
		m := machine.New(cfg)
		bench.Run(m, cfg.Nodes, s.Config.Seed)
		tr := m.Finish()
		st := m.Stats()
		stats, err := s.evaluate("ext/dirinb", []core.Scheme{base},
			[]search.NamedTrace{{Name: bench.Name(), Trace: tr}})
		if err != nil {
			return "", err
		}
		name := "full-map"
		if ptrs > 0 {
			name = fmt.Sprintf("Dir%dNB", ptrs)
		}
		t.AddRowf(name,
			fmt.Sprint(st.Directory.Invalidations),
			fmt.Sprint(st.Directory.Broadcasts),
			fmt.Sprint(st.NetMessages),
			fmt.Sprintf("%.3f", stats[0].AvgSensitivity()),
			fmt.Sprintf("%.3f", stats[0].AvgPVP()))
	}
	return t.String() + fmt.Sprintf("(workload: %s)\n", bench.Name()), nil
}
