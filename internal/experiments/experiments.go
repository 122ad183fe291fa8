// Package experiments orchestrates the reproduction of the paper's
// evaluation section: it runs the workload suite through the machine
// simulator, evaluates predictor schemes over the resulting traces, and
// renders each of the paper's tables (3–11) and figures (6–9). DESIGN.md
// carries the experiment index mapping each artifact to the modules
// involved.
package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"cohpredict/internal/core"
	"cohpredict/internal/machine"
	"cohpredict/internal/metrics"
	"cohpredict/internal/obs"
	"cohpredict/internal/report"
	"cohpredict/internal/search"
	"cohpredict/internal/trace"
	"cohpredict/internal/workload"
)

// Config parameterises a reproduction run.
type Config struct {
	Scale   workload.Scale
	Seed    int64
	Machine machine.Config
	// Quick reduces the design-space sweep for Tables 8–11.
	Quick bool
	// Workers bounds the worker pool used for benchmark simulation and
	// design-space sweeps; <= 0 selects runtime.GOMAXPROCS(0). Results
	// are bit-identical for every worker count.
	Workers int
	// Progress, if non-nil, receives status lines while long steps run.
	// It may be called from several workers; calls are serialised.
	Progress func(format string, args ...interface{})
	// LogLevel filters Progress output (obs.Quiet/Info/Debug). The zero
	// value with a non-nil Progress behaves as obs.Info, preserving the
	// historical progress stream; obs.Debug adds per-evaluation lines.
	LogLevel obs.Level
	// Obs receives the suite's metrics, spans and run manifest; nil
	// selects the shared obs.Default() registry. Observability never
	// perturbs results: tables and figures are byte-identical with any
	// registry and any worker count.
	Obs *obs.Registry
}

// workerCount resolves the configured pool size, capped at limit.
func (c Config) workerCount(limit int) int {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > limit {
		w = limit
	}
	if w < 1 {
		w = 1
	}
	return w
}

// DefaultConfig returns the standard reproduction configuration: the
// paper's 16-node machine (Table 4) and the default workload scale.
func DefaultConfig() Config {
	return Config{Scale: workload.ScaleDefault, Seed: 1, Machine: machine.DefaultConfig()}
}

// BenchRun holds one benchmark's simulation outputs.
type BenchRun struct {
	Benchmark workload.Benchmark
	Trace     *trace.Trace
	Stats     machine.Stats
}

// Suite is a generated set of benchmark traces plus memoised sweep results.
type Suite struct {
	Config Config
	CM     core.Machine
	Runs   []BenchRun

	sweeps map[core.UpdateMode][]search.Stats

	obs      *obs.Registry
	log      *obs.Logger
	manifest obs.Manifest

	// spanMu guards the current span parent path; suite artifacts are
	// orchestrated from one goroutine, so nested spans (a sweep inside a
	// table) stack onto their parent's path.
	spanMu     sync.Mutex
	spanParent string

	benchMu   sync.Mutex
	benchRecs []SweepRecord
}

// initObs resolves the suite's registry and logger from its config and
// stamps the run manifest.
func (s *Suite) initObs() {
	s.obs = s.Config.Obs
	if s.obs == nil {
		s.obs = obs.Default()
	}
	level := s.Config.LogLevel
	if level == obs.Quiet && s.Config.Progress != nil {
		level = obs.Info
	}
	s.log = obs.NewLogger(level, s.Config.Progress)
	s.manifest = obs.NewManifest(s.Config.Seed, s.Config.Scale.String(), s.Config.Workers)
	s.obs.SetManifest(s.manifest)
}

// Obs returns the registry receiving the suite's metrics and spans.
func (s *Suite) Obs() *obs.Registry { return s.obs }

// span starts a timed span nested under the currently open suite span
// (if any) and returns its end function.
func (s *Suite) span(name string) func() {
	s.spanMu.Lock()
	parent := s.spanParent
	full := name
	if parent != "" {
		full = parent + "/" + name
	}
	s.spanParent = full
	s.spanMu.Unlock()
	done := s.obs.Span(full)
	return func() {
		done()
		s.spanMu.Lock()
		s.spanParent = parent
		s.spanMu.Unlock()
	}
}

// NewSuite runs every benchmark through the simulator and returns the
// ready-to-evaluate suite. The per-benchmark simulations are independent
// (each owns its machine and deterministic scheduler seed), so they run on
// the configured worker pool; Runs keeps the workload.All order regardless.
func NewSuite(cfg Config) *Suite {
	s := &Suite{
		Config: cfg,
		CM:     core.Machine{Nodes: cfg.Machine.Nodes, LineBytes: cfg.Machine.LineBytes},
		sweeps: make(map[core.UpdateMode][]search.Stats),
	}
	s.initObs()
	defer s.span("generate")()
	benches := workload.All(cfg.Scale)
	runs := make([]BenchRun, len(benches))
	workers := cfg.workerCount(len(benches))
	var wg sync.WaitGroup
	idx := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				b := benches[i]
				s.progress("simulating %s (%s)", b.Name(), b.Input())
				m := machine.New(cfg.Machine)
				b.Run(m, cfg.Machine.Nodes, cfg.Seed)
				tr := m.Finish()
				runs[i] = BenchRun{Benchmark: b, Trace: tr, Stats: m.Stats()}
			}
		}()
	}
	for i := range benches {
		idx <- i
	}
	close(idx)
	wg.Wait()
	s.Runs = runs
	return s
}

// NewSuiteFromRuns builds a suite around pre-generated benchmark runs
// (e.g. traces loaded from disk); machine statistics may be zero in that
// case, which only affects Tables 4 and 5.
func NewSuiteFromRuns(cfg Config, runs []BenchRun) *Suite {
	s := &Suite{
		Config: cfg,
		CM:     core.Machine{Nodes: cfg.Machine.Nodes, LineBytes: cfg.Machine.LineBytes},
		Runs:   runs,
		sweeps: make(map[core.UpdateMode][]search.Stats),
	}
	s.initObs()
	return s
}

// progress emits an info-level status line through the suite's leveled
// logger (which serialises sink calls, so Config.Progress may touch
// unguarded state).
func (s *Suite) progress(format string, args ...interface{}) {
	s.log.Infof(format, args...)
}

// NamedTraces adapts the suite for the search package.
func (s *Suite) NamedTraces() []search.NamedTrace {
	nts := make([]search.NamedTrace, len(s.Runs))
	for i, r := range s.Runs {
		nts[i] = search.NamedTrace{Name: r.Benchmark.Name(), Trace: r.Trace}
	}
	return nts
}

// Table renders the paper table with the given number (1–11). Tables 1
// and 2 are structural (the taxonomy's indexing families and the metric
// definitions); 3–11 are measured. Each render is wrapped in a
// "table/N" span; sweeps run inside nest under it.
func (s *Suite) Table(n int) (string, error) {
	if n >= 1 && n <= 11 {
		defer s.span(fmt.Sprintf("table/%d", n))()
	}
	switch n {
	case 1:
		return s.table1(), nil
	case 2:
		return s.table2(), nil
	case 3:
		return s.table3(), nil
	case 4:
		return s.table4(), nil
	case 5:
		return s.table5(), nil
	case 6:
		return s.table6(), nil
	case 7:
		return s.table7()
	case 8:
		return s.topTable(8, core.Direct, true)
	case 9:
		return s.topTable(9, core.Forwarded, true)
	case 10:
		return s.topTable(10, core.Direct, false)
	case 11:
		return s.topTable(11, core.Forwarded, false)
	default:
		return "", fmt.Errorf("experiments: no table %d (paper tables 1-11)", n)
	}
}

// table1 renders the paper's Table 1 — the 16 indexing families of the
// global predictor and where each can be physically distributed — derived
// from the taxonomy code itself (core.IndexSpec.Distribution).
func (s *Suite) table1() string {
	t := report.NewTable("Table 1: indexing schemes for the global predictor",
		"No.", "pid", "pc", "dir", "addr", "at proc.", "at dir.", "Comments")
	mark := func(b bool) string {
		if b {
			return "Y"
		}
		return "-"
	}
	for row := 0; row < 16; row++ {
		spec := core.IndexSpec{
			UsePID: row&8 != 0,
			UseDir: row&2 != 0,
		}
		if row&4 != 0 {
			spec.PCBits = 1
		}
		if row&1 != 0 {
			spec.AddrBits = 1
		}
		d := spec.Distribution()
		comment := ""
		switch {
		case row == 0:
			comment = "1-entry, centralized"
		case d.Centralized:
			comment = "centralized"
		case row == 2:
			comment = "1 entry per directory"
		case row == 8:
			comment = "1 entry per processor"
		}
		t.AddRowf(fmt.Sprint(row), mark(spec.UsePID), mark(spec.PCBits > 0),
			mark(spec.UseDir), mark(spec.AddrBits > 0),
			mark(d.AtProcessors), mark(d.AtDirectory), comment)
	}
	return t.String()
}

// table2 renders the paper's Table 2 — the screening-test statistics.
func (s *Suite) table2() string {
	t := report.NewTable("Table 2: definitions of statistics",
		"Statistic", "Definition", "Meaning")
	t.AddRowf("Prevalence", "(TP+FN)/(TP+TN+FP+FN)", "base rate of true sharing; bounds achievable benefit")
	t.AddRowf("Sensitivity", "TP/(TP+FN)", "share of true sharing the scheme captures")
	t.AddRowf("PVP", "TP/(TP+FP)", "share of forwarding traffic that is useful")
	t.AddRowf("Specificity", "TN/(TN+FP)", "share of non-sharing correctly left alone")
	t.AddRowf("PVN", "TN/(TN+FN)", "share of negative predictions that are right")
	return t.String()
}

// FigurePanel is one panel of a paper figure: a labelled x-axis of index
// combinations and the measured series over them.
type FigurePanel struct {
	Title  string
	Labels []string
	Series []report.Series
}

// Figure renders the paper figure with the given number (6–9), wrapped
// in a "figure/N" span.
func (s *Suite) Figure(n int) (string, error) {
	if n >= 6 && n <= 9 {
		defer s.span(fmt.Sprintf("figure/%d", n))()
	}
	title, panels, err := s.figurePanels(n)
	if err != nil {
		return "", err
	}
	out := title + "\n"
	for _, p := range panels {
		out += report.RenderSeries("-- "+p.Title+" --", p.Labels, p.Series)
	}
	return out, nil
}

// FigureDetail renders a paper figure computed over a single benchmark's
// trace instead of the cross-benchmark average — the per-program view the
// paper's averaged figures hide.
func (s *Suite) FigureDetail(n int, bench string) (string, error) {
	for _, r := range s.Runs {
		if r.Benchmark.Name() != bench {
			continue
		}
		sub := NewSuiteFromRuns(s.Config, []BenchRun{r})
		title, panels, err := sub.figurePanels(n)
		if err != nil {
			return "", err
		}
		out := fmt.Sprintf("%s — %s only\n", title, bench)
		for _, p := range panels {
			out += report.RenderSeries("-- "+p.Title+" --", p.Labels, p.Series)
		}
		return out, nil
	}
	return "", fmt.Errorf("experiments: unknown benchmark %q", bench)
}

// FigureCSV returns the figure's data as CSV, one file per panel, keyed by
// a filesystem-friendly name like "figure6_direct.csv".
func (s *Suite) FigureCSV(n int) (map[string]string, error) {
	defer s.span(fmt.Sprintf("figure-csv/%d", n))()
	_, panels, err := s.figurePanels(n)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(panels))
	for _, p := range panels {
		name := fmt.Sprintf("figure%d_%s.csv", n, sanitize(p.Title))
		out[name] = report.SeriesCSV(p.Labels, p.Series)
	}
	return out, nil
}

// FigureSVG returns the figure as standalone SVG charts, one file per
// panel, keyed like "figure6_direct_update.svg".
func (s *Suite) FigureSVG(n int) (map[string]string, error) {
	defer s.span(fmt.Sprintf("figure-svg/%d", n))()
	title, panels, err := s.figurePanels(n)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(panels))
	for _, p := range panels {
		name := fmt.Sprintf("figure%d_%s.svg", n, sanitize(p.Title))
		out[name] = report.RenderSVG(title+" — "+p.Title, p.Labels, p.Series)
	}
	return out, nil
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			out = append(out, r)
		case r >= 'A' && r <= 'Z':
			out = append(out, r+'a'-'A')
		case r == ' ' || r == '-' || r == '_':
			out = append(out, '_')
		}
	}
	return string(out)
}

func (s *Suite) figurePanels(n int) (string, []FigurePanel, error) {
	var (
		title  string
		panels []FigurePanel
		err    error
	)
	switch n {
	case 6:
		title = "Figure 6: Intersection prediction (history depth 2, 16-bit max index)"
		panels, err = s.figureFn(core.Inter, 2, 16)
	case 7:
		title = "Figure 7: Union prediction (history depth 2, 16-bit max index)"
		panels, err = s.figureFn(core.Union, 2, 16)
	case 8:
		title = "Figure 8: PAs prediction (history depth 1, 12-bit max index)"
		panels, err = s.figureFn(core.PAs, 1, 12)
	case 9:
		title = "Figure 9: direct update, history depths 2 vs 4"
		panels, err = s.figure9()
	default:
		return "", nil, fmt.Errorf("experiments: no figure %d (paper figures 6-9)", n)
	}
	if err != nil {
		return "", nil, err
	}
	return title, panels, nil
}

// table3 reports workload inputs (paper Table 3).
func (s *Suite) table3() string {
	t := report.NewTable(fmt.Sprintf("Table 3: benchmark input size (scale=%s)", s.Config.Scale),
		"Benchmark", "Input")
	for _, r := range s.Runs {
		t.AddRow(r.Benchmark.Name(), r.Benchmark.Input())
	}
	return t.String()
}

// table4 reports the simulated system parameters (paper Table 4).
func (s *Suite) table4() string {
	cfg := s.Config.Machine
	t := report.NewTable("Table 4: system parameters", "Component", "Configuration")
	t.AddRow("Nodes", fmt.Sprintf("%d, 2-D torus interconnect", cfg.Nodes))
	t.AddRow("L1", fmt.Sprintf("%dKbyte %d-way, %d-byte lines",
		cfg.L1.SizeBytes>>10, cfg.L1.Assoc, cfg.L1.LineBytes))
	t.AddRow("L2", fmt.Sprintf("%dKbyte %d-way, %d-byte lines",
		cfg.L2.SizeBytes>>10, cfg.L2.Assoc, cfg.L2.LineBytes))
	t.AddRow("Local latency", fmt.Sprintf("%d cycles", cfg.LocalLatency))
	t.AddRow("Remote latency", fmt.Sprintf("%d cycles", cfg.RemoteLatency))
	t.AddRow("Coherence", "full-map invalidation directory, first-touch homes")
	return t.String()
}

// table5 reports store-instruction and cache-block statistics (paper
// Table 5).
func (s *Suite) table5() string {
	t := report.NewTable("Table 5: store instruction and cache block statistics",
		"Benchmark", "MaxStaticStores/node", "MaxPredictedStores/node",
		"CacheBlocksTouched", "CoherenceStoreMisses")
	for _, r := range s.Runs {
		t.AddRow(r.Benchmark.Name(), r.Stats.MaxStaticStores, r.Stats.MaxPredictedStores,
			r.Stats.Directory.BlocksTouched, r.Stats.TotalStoreMisses)
	}
	return t.String()
}

// table6 reports prevalence of sharing (paper Table 6). The counts follow
// the paper's accounting: every prediction event contributes one decision
// per node, scored here against a predictor that never forwards, so the
// sharing events are the true readers.
func (s *Suite) table6() string {
	t := report.NewTable("Table 6: prevalence of sharing",
		"Benchmark", "SharingEvents", "SharingDecisions", "Prevalence(%)", "DegreeOfSharing")
	nodes := s.CM.Nodes
	confs := make([]metrics.Confusion, len(s.Runs))
	for i, r := range s.Runs {
		c := &confs[i]
		for _, e := range r.Trace.Events {
			c.AddBitmaps(0, e.FutureReaders, nodes)
		}
		t.AddRowf(r.Benchmark.Name(), fmt.Sprint(c.SharingEvents()), fmt.Sprint(c.Decisions()),
			fmt.Sprintf("%.2f", c.Prevalence()*100), fmt.Sprintf("%.2f", c.DegreeOfSharing(nodes)))
	}
	avg := metrics.Mean(confs, metrics.Confusion.Prevalence)
	t.AddRowf("average", "", "", fmt.Sprintf("%.2f", avg*100), fmt.Sprintf("%.2f", avg*float64(nodes)))
	return t.String()
}

// table7 reports the schemes of earlier work (paper Table 7).
func (s *Suite) table7() (string, error) {
	rows := []struct {
		desc   string
		scheme string
	}{
		{"baseline-last", "last()1[direct]"},
		{"Kaxiras-instr.-last", "last(pid+pc8)1[direct]"},
		{"Kaxiras-instr.-inter.", "inter(pid+pc8)2[direct]"},
		{"Lai-address+pid-last", "last(pid+add8)1[direct]"},
		{"Kaxiras-instr.-last", "last(pid+pc8)1[forwarded]"},
		{"Kaxiras-instr.-inter.", "inter(pid+pc8)2[forwarded]"},
		{"Lai-address+pid-last", "last(pid+add8)1[forwarded]"},
	}
	schemes := make([]core.Scheme, len(rows))
	for i, r := range rows {
		sc, err := core.ParseScheme(r.scheme)
		if err != nil {
			return "", fmt.Errorf("experiments: table 7 scheme %q: %w", r.scheme, err)
		}
		schemes[i] = sc
	}
	stats, err := s.evaluate("table7", schemes, s.NamedTraces())
	if err != nil {
		return "", err
	}
	t := report.NewTable("Table 7: schemes reported by earlier work",
		"Description", "Scheme", "Update", "SizeLog2(bits)", "Sensitivity", "PVP")
	for i, st := range stats {
		t.AddRowf(rows[i].desc, st.Scheme.String(), st.Scheme.Update.String(),
			fmt.Sprint(st.SizeLog2), fmt.Sprintf("%.2f", st.AvgSensitivity()),
			fmt.Sprintf("%.2f", st.AvgPVP()))
	}
	return t.String(), nil
}

// sweep returns (memoised) full-space results for the update mode.
func (s *Suite) sweep(mode core.UpdateMode) ([]search.Stats, error) {
	if st, ok := s.sweeps[mode]; ok {
		return st, nil
	}
	defer s.span(fmt.Sprintf("sweep-%v", mode))()
	sp := search.DefaultSpace(mode)
	if s.Config.Quick {
		sp = search.QuickSpace(mode)
	}
	schemes := sp.Schemes(s.CM)
	s.progress("sweeping %d schemes under %v update", len(schemes), mode)
	st, err := s.evaluate(fmt.Sprintf("sweep/%v", mode), schemes, s.NamedTraces())
	if err != nil {
		return nil, err
	}
	s.sweeps[mode] = st
	return st, nil
}

// topTable renders Tables 8–11: the top-10 schemes by PVP or sensitivity
// under an update mode.
func (s *Suite) topTable(n int, mode core.UpdateMode, byPVP bool) (string, error) {
	swept, err := s.sweep(mode)
	if err != nil {
		return "", err
	}
	stats := append([]search.Stats(nil), swept...)
	metric := "sensitivity"
	if byPVP {
		metric = "PVP"
		search.SortByPVP(stats)
	} else {
		search.SortBySensitivity(stats)
	}
	t := report.NewTable(
		fmt.Sprintf("Table %d: top 10 %s, %v update", n, metric, mode),
		"Scheme", "SizeLog2", "Prev", "PVP", "Sens")
	for i := 0; i < 10 && i < len(stats); i++ {
		st := stats[i]
		t.AddRowf(st.Scheme.String(), fmt.Sprint(st.SizeLog2),
			fmt.Sprintf("%.2f", st.AvgPrevalence()),
			fmt.Sprintf("%.2f", st.AvgPVP()),
			fmt.Sprintf("%.2f", st.AvgSensitivity()))
	}
	return t.String(), nil
}

func comboLabels(combos []core.IndexSpec) []string {
	labels := make([]string, len(combos))
	for i, c := range combos {
		labels[i] = c.String()
		if labels[i] == "" {
			labels[i] = "(none)"
		}
	}
	return labels
}

// figureFn computes Figures 6–8: one prediction function across the 16
// indexing combinations, one panel per update mechanism.
func (s *Suite) figureFn(fn core.Function, depth, maxBits int) ([]FigurePanel, error) {
	combos := search.FigureCombos(maxBits, s.CM)
	labels := comboLabels(combos)
	var panels []FigurePanel
	for _, mode := range core.UpdateModes() {
		schemes := make([]core.Scheme, len(combos))
		for i, c := range combos {
			schemes[i] = core.Scheme{Fn: fn, Index: c, Depth: depth, Update: mode}
		}
		stats, err := s.evaluate(fmt.Sprintf("figure/%v/%v", fn, mode), schemes, s.NamedTraces())
		if err != nil {
			return nil, err
		}
		sens := make([]float64, len(stats))
		pvp := make([]float64, len(stats))
		for i, st := range stats {
			sens[i] = st.AvgSensitivity()
			pvp[i] = st.AvgPVP()
		}
		panels = append(panels, FigurePanel{
			Title:  fmt.Sprintf("%v update", mode),
			Labels: labels,
			Series: []report.Series{
				{Name: "sensitivity", Values: sens},
				{Name: "pvp", Values: pvp},
			},
		})
	}
	return panels, nil
}

// figure9 computes Figure 9: direct update, intersection/union/PAs at
// history depths 2 and 4, one panel per function.
func (s *Suite) figure9() ([]FigurePanel, error) {
	var panels []FigurePanel
	for _, part := range []struct {
		fn      core.Function
		maxBits int
	}{{core.Inter, 16}, {core.Union, 16}, {core.PAs, 12}} {
		combos := search.FigureCombos(part.maxBits, s.CM)
		var schemes []core.Scheme
		for _, c := range combos {
			schemes = append(schemes,
				core.Scheme{Fn: part.fn, Index: c, Depth: 2, Update: core.Direct},
				core.Scheme{Fn: part.fn, Index: c, Depth: 4, Update: core.Direct})
		}
		stats, err := s.evaluate(fmt.Sprintf("figure9/%v", part.fn), schemes, s.NamedTraces())
		if err != nil {
			return nil, err
		}
		series := []report.Series{
			{Name: "pvp(2)"}, {Name: "sens(2)"}, {Name: "pvp(4)"}, {Name: "sens(4)"},
		}
		for i := 0; i < len(stats); i += 2 {
			series[0].Values = append(series[0].Values, stats[i].AvgPVP())
			series[1].Values = append(series[1].Values, stats[i].AvgSensitivity())
			series[2].Values = append(series[2].Values, stats[i+1].AvgPVP())
			series[3].Values = append(series[3].Values, stats[i+1].AvgSensitivity())
		}
		panels = append(panels, FigurePanel{
			Title:  part.fn.String(),
			Labels: comboLabels(combos),
			Series: series,
		})
	}
	return panels, nil
}
