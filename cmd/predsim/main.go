// Command predsim reproduces the evaluation of "Coherence Communication
// Prediction in Shared-Memory Multiprocessors" (Kaxiras & Young, HPCA
// 2000): it simulates the SPLASH-like workload suite on a 16-node
// directory-based machine, evaluates sharing-prediction schemes over the
// coherence traces, and regenerates each of the paper's tables and figures.
//
// Usage examples:
//
//	predsim -all                 # every table and figure, default scale
//	predsim -table 8 -quick      # top-10 PVP table from a reduced sweep
//	predsim -figure 6            # intersection-prediction index sweep
//	predsim -scheme 'inter(pid+pc8)2[forwarded]'   # one scheme's stats
//	predsim -bench mp3d -scale full                # one workload's stats
//	predsim -save traces/        # persist the generated traces
//	predsim -summary -quick      # one-screen paper-vs-measured verdicts
//	predsim -extensions          # the seven extension studies
//	predsim -all -workers 4      # bound the worker pool (0 = all CPUs)
//	predsim -quick -benchjson b.json   # machine-readable sweep perf records
//	predsim -quick -obs obs.json       # metrics snapshot + span tree (stderr)
//	predsim -all -cpuprofile cpu.pprof -memprofile mem.pprof
//	predsim -version                   # build identity (module, VCS rev)
//
// Simulation and sweeps run on a bounded worker pool; output is
// byte-identical for every -workers value — with or without the
// observability flags, whose data goes to files and stderr only.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"cohpredict/internal/core"
	"cohpredict/internal/experiments"
	"cohpredict/internal/machine"
	"cohpredict/internal/obs"
	"cohpredict/internal/report"
	"cohpredict/internal/trace"
	"cohpredict/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "predsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		tableN   = flag.Int("table", 0, "render paper table N (1-11)")
		figureN  = flag.Int("figure", 0, "render paper figure N (6-9)")
		figBench = flag.String("figbench", "", "with -figure: restrict the figure to one benchmark")
		all      = flag.Bool("all", false, "render every table and figure")
		scaleS   = flag.String("scale", "default", "workload scale: test, default, full")
		seed     = flag.Int64("seed", 1, "deterministic simulation seed")
		quick    = flag.Bool("quick", false, "reduced design-space sweep for tables 8-11")
		schemeS  = flag.String("scheme", "", "evaluate comma-separated scheme(s), e.g. 'inter(pid+pc8)2[forwarded]'")
		pareto   = flag.String("pareto", "", "render the cost-accuracy Pareto frontier under this update mode (direct, forwarded, ordered)")
		exts     = flag.Bool("extensions", false, "render the seven extension studies (sticky-spatial, Dir_iNB, learning, scaling, MESI, Cosmos, online forwarding)")
		benchS   = flag.String("bench", "", "run a single benchmark and print its statistics")
		saveDir  = flag.String("save", "", "write generated traces to this directory")
		csvDir   = flag.String("csv", "", "write figure data as CSV files to this directory")
		svgDir   = flag.String("svg", "", "write figures as SVG charts to this directory")
		loadDir  = flag.String("load", "", "read traces from this directory instead of simulating")
		summary  = flag.Bool("summary", false, "print the headline reproduction summary")
		list     = flag.Bool("list", false, "list benchmarks and exit")
		workers  = flag.Int("workers", 0, "worker pool size for simulation and sweeps (0 = all CPUs); results are identical for any value")
		benchOut = flag.String("benchjson", "", "write machine-readable sweep perf records (wall time, events/sec) to this JSON file")
		verbose  = flag.Bool("v", false, "print progress and per-evaluation debug lines")
		obsOut   = flag.String("obs", "", "write the observability snapshot (manifest, counters, gauges, histograms, spans) to this JSON file and print the span tree to stderr")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
		version  = flag.Bool("version", false, "print version and build identity, then exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("predsim", obs.Version())
		return nil
	}
	if *cpuProf != "" {
		stop, err := obs.StartCPUProfile(*cpuProf)
		if err != nil {
			return err
		}
		defer stop()
	}

	scale, err := parseScale(*scaleS)
	if err != nil {
		return err
	}
	if *list {
		for _, b := range workload.All(scale) {
			fmt.Printf("%-10s %s\n", b.Name(), b.Input())
		}
		return nil
	}

	cfg := experiments.DefaultConfig()
	cfg.Scale = scale
	cfg.Seed = *seed
	cfg.Quick = *quick
	cfg.Workers = *workers
	if *verbose {
		cfg.Progress = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, "predsim: "+format+"\n", args...)
		}
		cfg.LogLevel = obs.Debug
	}

	if *benchS != "" {
		return runBench(*benchS, cfg)
	}

	start := time.Now()
	suite, err := buildSuite(cfg, *loadDir)
	if err != nil {
		return err
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "predsim: suite ready in %v\n", time.Since(start).Round(time.Millisecond))
	}
	if *saveDir != "" {
		if err := saveTraces(suite, *saveDir); err != nil {
			return err
		}
	}

	did := false
	if *schemeS != "" {
		if err := evalSchemes(suite, *schemeS); err != nil {
			return err
		}
		did = true
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		for n := 6; n <= 9; n++ {
			files, err := suite.FigureCSV(n)
			if err != nil {
				return err
			}
			for _, name := range sortedKeys(files) {
				path := filepath.Join(*csvDir, name)
				if err := os.WriteFile(path, []byte(files[name]), 0o644); err != nil {
					return err
				}
				fmt.Println("wrote", path)
			}
		}
		did = true
	}
	if *summary {
		out, err := suite.Summary()
		if err != nil {
			return err
		}
		fmt.Println(out)
		did = true
	}
	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			return err
		}
		for n := 6; n <= 9; n++ {
			files, err := suite.FigureSVG(n)
			if err != nil {
				return err
			}
			for _, name := range sortedKeys(files) {
				path := filepath.Join(*svgDir, name)
				if err := os.WriteFile(path, []byte(files[name]), 0o644); err != nil {
					return err
				}
				fmt.Println("wrote", path)
			}
		}
		did = true
	}
	if *pareto != "" {
		var mode core.UpdateMode
		switch *pareto {
		case "direct":
			mode = core.Direct
		case "forwarded":
			mode = core.Forwarded
		case "ordered":
			mode = core.Ordered
		default:
			return fmt.Errorf("unknown update mode %q", *pareto)
		}
		out, err := suite.Pareto(mode)
		if err != nil {
			return err
		}
		fmt.Println(out)
		did = true
	}
	if *exts {
		for _, ext := range []func() (string, error){
			suite.ExtensionSticky,
			suite.ExtensionLimitedDirectory,
			suite.ExtensionLearning,
			suite.ExtensionScaling,
			suite.ExtensionMESI,
			suite.ExtensionCosmos,
			suite.ExtensionOnlineForwarding,
		} {
			out, err := ext()
			if err != nil {
				return err
			}
			fmt.Println(out)
		}
		did = true
	}
	if *tableN != 0 {
		out, err := suite.Table(*tableN)
		if err != nil {
			return err
		}
		fmt.Println(out)
		did = true
	}
	if *figureN != 0 {
		var out string
		if *figBench != "" {
			out, err = suite.FigureDetail(*figureN, *figBench)
		} else {
			out, err = suite.Figure(*figureN)
		}
		if err != nil {
			return err
		}
		fmt.Println(out)
		did = true
	}
	if *all {
		for n := 1; n <= 11; n++ {
			out, err := suite.Table(n)
			if err != nil {
				return err
			}
			fmt.Println(out)
		}
		for n := 6; n <= 9; n++ {
			out, err := suite.Figure(n)
			if err != nil {
				return err
			}
			fmt.Println(out)
		}
		did = true
	}
	if *benchOut != "" || *obsOut != "" {
		// With no other artifact requested, run the Tables 8/9 sweep
		// workload so these flags work as self-contained perf probes.
		if len(suite.SweepRecords()) == 0 {
			for _, n := range []int{8, 9} {
				if _, err := suite.Table(n); err != nil {
					return err
				}
			}
		}
	}
	if *benchOut != "" {
		data, err := suite.BenchJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*benchOut, data, 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", *benchOut)
		did = true
	}
	// Observability exports come last so the snapshot covers every phase
	// above. The span tree goes to stderr: stdout carries only tables and
	// figures, which stay byte-identical whatever the timings.
	if *obsOut != "" {
		data, err := suite.Obs().SnapshotJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*obsOut, data, 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", *obsOut)
		fmt.Fprint(os.Stderr, suite.Obs().SpanTree())
		did = true
	}
	if *memProf != "" {
		if err := obs.WriteHeapProfile(*memProf); err != nil {
			return err
		}
		fmt.Println("wrote", *memProf)
		did = true
	}
	if !did && *saveDir == "" {
		flag.Usage()
	}
	return nil
}

// sortedKeys returns the map's keys in sorted order, so "wrote" lines
// print deterministically.
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func parseScale(s string) (workload.Scale, error) {
	switch s {
	case "test":
		return workload.ScaleTest, nil
	case "default":
		return workload.ScaleDefault, nil
	case "full":
		return workload.ScaleFull, nil
	default:
		return 0, fmt.Errorf("unknown scale %q (want test, default or full)", s)
	}
}

func buildSuite(cfg experiments.Config, loadDir string) (*experiments.Suite, error) {
	if loadDir == "" {
		return experiments.NewSuite(cfg), nil
	}
	// Loading replaces simulation: read each trace file named after its
	// benchmark.
	var runs []experiments.BenchRun
	for _, b := range workload.All(cfg.Scale) {
		path := filepath.Join(loadDir, b.Name()+".trace")
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		tr, err := trace.Read(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, experiments.BenchRun{Benchmark: b, Trace: tr})
	}
	return experiments.NewSuiteFromRuns(cfg, runs), nil
}

func saveTraces(s *experiments.Suite, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, r := range s.Runs {
		path := filepath.Join(dir, r.Benchmark.Name()+".trace")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = r.Trace.Write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func runBench(name string, cfg experiments.Config) error {
	b, err := workload.ByName(name, cfg.Scale)
	if err != nil {
		return err
	}
	m := machine.New(cfg.Machine)
	start := time.Now()
	b.Run(m, cfg.Machine.Nodes, cfg.Seed)
	tr := m.Finish()
	st := m.Stats()
	fmt.Printf("benchmark %s (%s): %v\n", b.Name(), b.Input(), time.Since(start).Round(time.Millisecond))
	t := report.NewTable("", "Statistic", "Value")
	t.AddRow("loads", st.TotalLoads)
	t.AddRow("stores", st.TotalStores)
	t.AddRow("coherence store misses", st.TotalStoreMisses)
	t.AddRow("prediction events", len(tr.Events))
	t.AddRow("cache blocks touched", st.Directory.BlocksTouched)
	t.AddRow("read misses", st.Directory.ReadMisses)
	t.AddRow("invalidations", st.Directory.Invalidations)
	t.AddRow("writebacks", st.Directory.Writebacks)
	t.AddRow("max static stores/node", st.MaxStaticStores)
	t.AddRow("max predicted stores/node", st.MaxPredictedStores)
	t.AddRow("network messages", st.NetMessages)
	t.AddRow("network hop-flits", st.NetHopFlits)
	fmt.Print(t.String())
	return nil
}

func evalSchemes(suite *experiments.Suite, schemeList string) error {
	var schemes []core.Scheme
	for _, part := range strings.Split(schemeList, ",") {
		s, err := core.ParseScheme(strings.TrimSpace(part))
		if err != nil {
			return err
		}
		schemes = append(schemes, s)
	}
	stats, err := suite.Evaluate("scheme-flag", schemes)
	if err != nil {
		return err
	}
	t := report.NewTable("", "Scheme", "SizeLog2", "Prev", "Sens", "PVP")
	for _, st := range stats {
		t.AddRowf(st.Scheme.FullString(), fmt.Sprint(st.SizeLog2),
			fmt.Sprintf("%.3f", st.AvgPrevalence()),
			fmt.Sprintf("%.3f", st.AvgSensitivity()),
			fmt.Sprintf("%.3f", st.AvgPVP()))
	}
	fmt.Print(t.String())
	fmt.Println("\nper-benchmark (± Gastwirth standard errors):")
	for _, st := range stats {
		fmt.Printf("  %s\n", st.Scheme.FullString())
		for i, name := range st.Bench {
			c := st.PerBench[i]
			fmt.Printf("    %-10s prev=%.3f sens=%.3f±%.3f pvp=%.3f±%.3f (TP=%d FP=%d FN=%d)\n",
				name, c.Prevalence(),
				c.Sensitivity(), c.StdErrSensitivity(),
				c.PVP(), c.StdErrPVP(), c.TP, c.FP, c.FN)
		}
	}
	return nil
}
