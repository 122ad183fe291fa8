package experiments

import (
	"strings"
	"testing"

	"cohpredict/internal/obs"
	"cohpredict/internal/workload"
)

// TestSuiteObservability: a suite with its own registry produces the
// span hierarchy (generate, table/N with a nested eval, sweep under the
// table), engine counters and table-occupancy gauges — and the metrics
// never change the artifact output (asserted against a second,
// uninstrumented suite).
func TestSuiteObservability(t *testing.T) {
	reg := obs.New()
	cfg := DefaultConfig()
	cfg.Scale = workload.ScaleTest
	cfg.Quick = true
	cfg.Obs = reg
	s := NewSuite(cfg)
	out, err := s.Table(8)
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if snap.Counters["sweep_events_total"] == 0 {
		t.Error("sweep_events_total = 0 after a sweep")
	}
	if snap.Counters["sweep_cells_total"] == 0 {
		t.Error("sweep_cells_total = 0 after a sweep")
	}
	if snap.Gauges["sweep_hist_entries"] == 0 {
		t.Error("sweep_hist_entries gauge = 0 after a sweep")
	}
	spans := map[string]obs.SpanSnapshot{}
	for _, sp := range snap.Spans {
		spans[sp.Path] = sp
	}
	for _, want := range []string{"generate", "table/8", "table/8/sweep-direct/eval"} {
		if _, ok := spans[want]; !ok {
			t.Errorf("missing span %q in %v", want, snap.Spans)
		}
	}
	if snap.Manifest == nil || snap.Manifest.Scale != "test" {
		t.Errorf("snapshot manifest = %+v", snap.Manifest)
	}

	// Per-worker busy time shows up however the pool was sized.
	busy := false
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "sweep_worker_") && v > 0 {
			busy = true
		}
	}
	if !busy {
		t.Errorf("no nonzero sweep_worker_*_busy_ns counter in %v", snap.Counters)
	}

	// Observability must not perturb results: an uninstrumented suite
	// renders the identical table.
	cfg2 := DefaultConfig()
	cfg2.Scale = workload.ScaleTest
	cfg2.Quick = true
	plain := NewSuite(cfg2)
	out2, err := plain.Table(8)
	if err != nil {
		t.Fatal(err)
	}
	if out != out2 {
		t.Error("Table 8 differs between instrumented and uninstrumented suites")
	}
}

// TestSuiteSpanTreeRenders: the span tree includes the generation phase
// and renders nested evals deeper than their parents.
func TestSuiteSpanTreeRenders(t *testing.T) {
	reg := obs.New()
	cfg := DefaultConfig()
	cfg.Scale = workload.ScaleTest
	cfg.Quick = true
	cfg.Obs = reg
	s := NewSuite(cfg)
	if _, err := s.Table(7); err != nil {
		t.Fatal(err)
	}
	tree := reg.SpanTree()
	if !strings.Contains(tree, "generate") || !strings.Contains(tree, "table/7/eval") {
		t.Errorf("span tree missing phases:\n%s", tree)
	}
}

// TestLogLevels: the debug level adds per-evaluation lines on top of the
// historical info-level progress stream; quiet (the default without a
// Progress callback) emits nothing.
func TestLogLevels(t *testing.T) {
	var info, debug []string
	cfg := DefaultConfig()
	cfg.Scale = workload.ScaleTest
	cfg.Quick = true
	cfg.Obs = obs.New()
	cfg.Progress = func(format string, args ...interface{}) { info = append(info, format) }
	s := NewSuite(cfg)
	if _, err := s.Table(7); err != nil {
		t.Fatal(err)
	}
	for _, line := range info {
		if strings.Contains(line, "evaluated") {
			t.Errorf("debug line leaked at info level: %q", line)
		}
	}

	cfg.Obs = obs.New()
	cfg.LogLevel = obs.Debug
	cfg.Progress = func(format string, args ...interface{}) { debug = append(debug, format) }
	s = NewSuite(cfg)
	if _, err := s.Table(7); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, line := range debug {
		if strings.Contains(line, "evaluated") {
			found = true
		}
	}
	if !found {
		t.Errorf("no per-evaluation debug line at Debug level: %q", debug)
	}
	if len(debug) <= len(info) {
		t.Errorf("debug stream (%d lines) not longer than info stream (%d)", len(debug), len(info))
	}
}
